"""Objective conjugates, gradients, boxes and utility evaluation."""

import itertools
import math

import numpy as np
import pytest

import dexroute as dx
from dexroute import objectives
from dexroute.errors import ConfigurationError, DomainError
from dexroute.objectives import BasketLiquidation, TotalArbitrage


def _conjugate_supremum(obj, nu, psi_lo, psi_hi, steps=60):
    """Brute-force sup_psi U(psi) - nu.psi over a grid (validation only)."""
    axes = [np.linspace(lo, hi, steps) for lo, hi in zip(psi_lo, psi_hi)]
    best = -math.inf
    for point in itertools.product(*axes):
        psi = np.array(point)
        u = obj.utility(psi, feas_tol=1e-12)
        if u == -math.inf:
            continue
        best = max(best, u - float(np.asarray(nu) @ psi))
    return best


class TestTotalArbitrage:
    def test_conjugate_zero_inside_box(self):
        obj = TotalArbitrage(np.array([1.0, 2.0]))
        assert obj.conjugate(np.array([1.0, 2.0])) == 0.0
        assert obj.conjugate(np.array([5.0, 2.5])) == 0.0

    def test_conjugate_infinite_outside_box(self):
        obj = TotalArbitrage(np.array([1.0, 2.0]))
        assert obj.conjugate(np.array([0.5, 2.0])) == math.inf

    def test_gradient_zero_inside_box(self):
        obj = TotalArbitrage(np.array([1.0, 2.0]))
        assert np.array_equal(obj.conjugate_gradient(np.array([1.5, 2.5])), [0.0, 0.0])

    def test_gradient_outside_box_raises(self):
        obj = TotalArbitrage(np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            obj.conjugate_gradient(np.array([0.0, 0.0]))

    def test_bounds_are_the_valuation(self):
        obj = TotalArbitrage(np.array([1.0, 2.0]))
        lower, upper = obj.bounds()
        assert np.array_equal(lower, [1.0, 2.0])
        assert np.all(np.isinf(upper))

    def test_conjugate_matches_grid_supremum(self):
        obj = TotalArbitrage(np.array([1.0, 2.0]))
        nu = np.array([1.3, 2.1])
        sup = _conjugate_supremum(obj, nu, [0.0, 0.0], [5.0, 5.0])
        assert obj.conjugate(nu) == pytest.approx(sup, abs=1e-9)

    def test_utility_values_nonnegative_baskets(self):
        obj = TotalArbitrage(np.array([1.0, 2.0]))
        assert obj.utility(np.array([3.0, 4.0])) == pytest.approx(11.0)
        assert obj.utility(np.array([-1.0, 4.0])) == -math.inf

    def test_rejects_bad_valuation(self):
        with pytest.raises(ConfigurationError):
            TotalArbitrage(np.array([-1.0, 2.0]))
        with pytest.raises(ConfigurationError):
            TotalArbitrage(np.zeros(2))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError):
                TotalArbitrage(np.array([1.0, bad]))


class TestBasketLiquidation:
    def _obj(self):
        return BasketLiquidation(np.array([10.0, 0.0, 0.0]), 2)

    def test_conjugate_value(self):
        obj = BasketLiquidation(np.array([10.0, 0.0, 0.0]), 2)
        assert obj.conjugate(np.array([1.5, 2.0, 1.0])) == pytest.approx(15.0)

    def test_conjugate_infinite_when_out_price_below_one(self):
        assert self._obj().conjugate(np.array([1.0, 1.0, 0.5])) == math.inf

    def test_conjugate_matches_grid_supremum(self):
        obj = self._obj()
        nu = np.array([1.5, 2.0, 1.0])
        sup = _conjugate_supremum(
            obj, nu, [-10.0, 0.0, 0.0], [2.0, 2.0, 12.0], steps=49
        )
        # grid supremum approaches nu.basket from below (attained at psi=-basket)
        assert sup <= obj.conjugate(nu) + 1e-9
        assert sup == pytest.approx(obj.conjugate(nu), abs=0.6)

    def test_gradient_is_basket(self):
        obj = self._obj()
        assert np.array_equal(obj.conjugate_gradient(np.array([1.0, 1.0, 2.0])), obj.basket)

    def test_bounds_pin_out_token(self):
        lower, upper = self._obj().bounds()
        assert lower[2] == 1.0
        assert lower[0] == objectives.PRICE_EPS
        assert np.all(np.isinf(upper))

    def test_utility_is_output_amount(self):
        obj = self._obj()
        assert obj.utility(np.array([-10.0, 0.0, 7.0])) == pytest.approx(7.0)
        assert obj.utility(np.array([-11.0, 0.0, 7.0])) == -math.inf

    def test_basket_must_not_tender_output(self):
        with pytest.raises(ConfigurationError):
            BasketLiquidation(np.array([1.0, 1.0]), 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_basket(self, bad):
        with pytest.raises(ConfigurationError):
            BasketLiquidation(np.array([1.0, bad, 0.0]), 2)


class TestModuleFunctions:
    def test_wrappers_delegate(self):
        obj = TotalArbitrage(np.array([1.0, 2.0]))
        nu = np.array([1.5, 2.5])
        assert obj.conjugate(nu) == 0.0
        assert np.array_equal(obj.conjugate_gradient(nu), [0.0, 0.0])
        lower, _ = obj.bounds()
        assert np.array_equal(lower, [1.0, 2.0])

    def test_recover_primal_is_net_trade(self):
        uni = dx.AssetUniverse(("A", "B"))
        m = dx.GeomMeanMarket(np.array([100.0, 100.0]), (0.5, 0.5), 1.0, dx.TokenMap((0, 1)))
        snap = dx.MarketSnapshot(uni, [m])
        psi = dx.net_trade(snap, np.array([[2.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert np.array_equal(psi.psi, [-2.0, 1.0])

    def test_objective_from_dict(self):
        obj = objectives.objective_from_dict(
            {"objective": "arbitrage", "prices": [1.0, 2.0]}, 2
        )
        assert isinstance(obj, TotalArbitrage)
        obj = objectives.objective_from_dict(
            {"objective": "liquidate", "basket": [1.0, 0.0], "out_token": 1}, 2
        )
        assert isinstance(obj, BasketLiquidation)
        with pytest.raises(ConfigurationError):
            objectives.objective_from_dict({"objective": "nope"}, 2)
