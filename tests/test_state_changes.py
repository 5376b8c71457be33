"""The state-change contract as a stateful property test.

`swap` and `update_liquidity`, on a snapshot's markets or on a copy of the
snapshot, leave no stale solver state and no half-applied write.  After
every step a solve equals, bit for bit, the solve of the snapshot read back
from its own `dumps_snapshot`.  A refused step leaves every block and every
`other` market's reserves bit for bit as they were, an accepted swap lowers
no market's or segment's `phi` by more than the swap tolerance, and a write
to a copy, deep copy or pickle of the snapshot leaves the original's text
unchanged.  The machine runs derandomized on a fixed budget, so every run
takes the same steps.
"""

import copy
import json
import math
import pickle

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import dexroute as dx
from dexroute.errors import ConfigurationError, DomainError, RejectedTradeError
from dexroute.markets import _SWAP_RTOL

from test_solver import _assert_same_solve, _view_network

_REFUSED = (RejectedTradeError, DomainError, ConfigurationError)
_PRICES = np.array([1.0, 1.2, 0.9])
# amounts in range, oversized and non-finite
_AMOUNTS = st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, 1e-9, 1e6, 1e12, math.inf, math.nan]))
_MARKET = st.integers(0, 4)  # `_view_network`: two gmean pools, a segment, a ten-segment ladder, a curve2 pool
_COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda s: pickle.loads(pickle.dumps(s))}


def _state(snap) -> list[bytes]:
    """Every block and every `other` market's reserves, as bytes."""
    return ([name.encode() + block.tobytes() for name, block in sorted(snap.blocks.items())]
            + [mkt.reserves.tobytes() for _, mkt in snap.other])


def _reserves(market) -> np.ndarray:
    return sum(part.reserves for part in getattr(market, "segments", (market,)))


def _phis(market) -> list[float]:
    """Each part's phi: none for no market, an aggregate's segments' own."""
    if market is None:
        return []
    return [part.phi() for part in getattr(market, "segments", (market,))]


def _range(market, segment: int) -> tuple:
    """The price-range argument of `update_liquidity` on market: an
    aggregate's segment's active interval, or one it has no segment for."""
    if not isinstance(market, dx.AggregateMarket):
        return ()
    if segment >= len(market.segments):
        return ((1.0, 2.0),)
    return (market.segments[segment].active_interval(),)


class SnapshotWrites(RuleBasedStateMachine):
    @initialize(source=st.sampled_from(["objects", "json"]))
    def build(self, source):
        self.snap = _view_network(source)
        self.snap.prices = _PRICES.copy()
        self.obj = dx.TotalArbitrage(_PRICES)

    def _write(self, snap, act, market=None):
        """Run the write act() on snap, and say whether it was accepted.  A
        refused one changes nothing; an accepted one lowers no phi of market
        beyond the swap tolerance."""
        before, phis = _state(snap), _phis(market)
        try:
            act()
        except _REFUSED:
            assert _state(snap) == before
            return False
        for pre, post in zip(phis, _phis(market)):
            assert post >= pre * (1.0 - _SWAP_RTOL)
        return True

    @rule(k=_MARKET, scale=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3))
    def swap_routed(self, k, scale):
        """Swap market k's trade in the routing at the scaled prices."""
        trade = dx.solve(self.snap, dx.TotalArbitrage(_PRICES * scale)).trades[k]
        market = self.snap.markets[k]
        self._write(self.snap, lambda: dx.swap(market, trade), market)

    @rule(k=_MARKET, asset=st.integers(0, 1),
          size=st.one_of(st.floats(0.0, 1.0), st.sampled_from([2.0, 1e6, math.inf, math.nan])))
    def swap_random(self, k, asset, size):
        """Tender size times the market's reserve of one asset for share
        times its worth at the edge of the spread, share from 1.5 down to
        0.5 until one is accepted: refused while that drains the other
        reserve or lowers phi, or where it is not finite."""
        market = self.snap.markets[k]
        bid, ask = market.spread()
        amount = size * float(_reserves(market)[asset])
        for share in (1.5, 1.01, 0.99, 0.5):
            t, r = np.zeros(2), np.zeros(2)
            t[asset], r[1 - asset] = amount, share * amount * (bid if asset == 0 else 1.0 / ask)
            if self._write(self.snap, lambda: dx.swap(market, dx.Trade(t, r)), market):
                return

    @rule(k=_MARKET, amounts=st.lists(st.one_of(_AMOUNTS, st.just(-1.0)), min_size=2, max_size=2),
          segment=st.integers(0, 10))
    def update(self, k, amounts, segment):
        """Deposit on market k; an aggregate names a segment's range, or a
        range it has no segment for."""
        market = self.snap.markets[k]
        self._write(self.snap, lambda: dx.update_liquidity(market, amounts, *_range(market, segment)))

    @rule(how=st.sampled_from(sorted(_COPIES)), k=_MARKET, amount=st.floats(0.1, 10.0),
          segment=st.integers(0, 9))
    def write_a_copy(self, how, k, amount, segment):
        """Write to a copy of the snapshot: its prices, a deposit on market
        k and a sale on it for nothing.  The original keeps its text."""
        text = dx.dumps_snapshot(self.snap)
        dup = _COPIES[how](self.snap)
        dup.prices *= 2.0
        market = dup.markets[k]
        self._write(dup, lambda: dx.update_liquidity(market, [amount, amount], *_range(market, segment)))
        self._write(dup, lambda: dx.swap(market, dx.Trade(np.array([amount, 0.0]), np.zeros(2))), market)
        assert dx.dumps_snapshot(self.snap) == text

    @invariant()
    def solves_as_its_own_text(self):
        back = dx.snapshot_from_dict(json.loads(dx.dumps_snapshot(self.snap)))
        _assert_same_solve(dx.solve(self.snap, self.obj), dx.solve(back, self.obj))


SnapshotWrites.TestCase.settings = settings(max_examples=30, stateful_step_count=20, derandomize=True,
                                            deadline=None, database=None)
TestSnapshotWrites = SnapshotWrites.TestCase
