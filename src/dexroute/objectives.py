"""Utility objectives: conjugates, gradients and dual-variable bounds.

Each objective supplies the transformed conjugate
    conj(nu) = sup_psi (U(psi) - nu.psi),
its gradient (equal to minus the maximizing psi), and the box on which the
conjugate is finite.  The dual solver minimizes conj(nu) + sum of per-market
arbitrage values over that box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

# Strictly positive floor on dual variables whose natural bound is zero;
# markets require positive local prices.
PRICE_EPS = 1e-10


@dataclass(frozen=True)
class TotalArbitrage:
    """Extract value at external valuation c while tendering nothing net:
    U(psi) = c.psi whenever psi >= 0, -inf otherwise."""

    valuation: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.valuation, dtype=float)
        if np.any(c < 0) or not np.any(c > 0):
            raise ConfigurationError("valuation must be nonnegative with a positive entry")
        object.__setattr__(self, "valuation", c)

    @property
    def n(self) -> int:
        return self.valuation.shape[0]

    def conjugate(self, nu: np.ndarray) -> float:
        if np.all(np.asarray(nu) >= self.valuation):
            return 0.0
        return math.inf

    def conjugate_gradient(self, nu: np.ndarray) -> np.ndarray:
        if not np.all(np.asarray(nu) >= self.valuation):
            raise DomainError("nu outside the conjugate's finite box")
        return np.zeros(self.n)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.valuation.copy(), np.full(self.n, math.inf)

    def utility(self, psi: np.ndarray, feas_tol: float = 1e-6) -> float:
        psi = np.asarray(psi, dtype=float)
        scale = max(1.0, float(np.abs(psi).max(initial=0.0)))
        if np.any(psi < -feas_tol * scale):
            return -math.inf
        return float(self.valuation @ psi)


@dataclass(frozen=True)
class BasketLiquidation:
    """Sell a fixed basket for as much of one output token as possible:
    U(psi) = psi[out_token] whenever psi >= -basket, -inf otherwise."""

    basket: np.ndarray
    out_token: int

    def __post_init__(self):
        b = np.asarray(self.basket, dtype=float)
        if np.any(b < 0) or not np.any(b > 0):
            raise ConfigurationError("basket must be nonnegative with a positive entry")
        if not (0 <= self.out_token < b.shape[0]):
            raise ConfigurationError("out_token index out of range")
        if b[self.out_token] != 0.0:
            raise ConfigurationError("basket must not tender the output token")
        object.__setattr__(self, "basket", b)

    @property
    def n(self) -> int:
        return self.basket.shape[0]

    def _in_box(self, nu: np.ndarray) -> bool:
        nu = np.asarray(nu)
        return bool(nu[self.out_token] >= 1.0 and np.all(nu >= 0.0))

    def conjugate(self, nu: np.ndarray) -> float:
        # sup over psi >= -basket of psi[t] - nu.psi, separable per coordinate;
        # finite iff nu >= e_t, attained at psi = -basket.
        if self._in_box(nu):
            return float(np.asarray(nu) @ self.basket)
        return math.inf

    def conjugate_gradient(self, nu: np.ndarray) -> np.ndarray:
        if not self._in_box(nu):
            raise DomainError("nu outside the conjugate's finite box")
        return self.basket.copy()

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lower = np.full(self.n, PRICE_EPS)
        lower[self.out_token] = 1.0
        return lower, np.full(self.n, math.inf)

    def utility(self, psi: np.ndarray, feas_tol: float = 1e-6) -> float:
        psi = np.asarray(psi, dtype=float)
        scale = max(1.0, float(np.abs(psi).max(initial=0.0)), float(self.basket.max()))
        if np.any(psi < -self.basket - feas_tol * scale):
            return -math.inf
        return float(psi[self.out_token])


Objective = TotalArbitrage | BasketLiquidation


def objective_from_dict(doc: dict, n: int) -> Objective:
    kind = doc.get("objective")
    if kind == "arbitrage":
        prices = np.asarray(doc["prices"], dtype=float)
        if prices.shape != (n,):
            raise ConfigurationError("prices length does not match universe")
        return TotalArbitrage(prices)
    if kind == "liquidate":
        basket = np.asarray(doc["basket"], dtype=float)
        if basket.shape != (n,):
            raise ConfigurationError("basket length does not match universe")
        return BasketLiquidation(basket, int(doc["out_token"]))
    raise ConfigurationError(f"unknown objective: {kind!r}")
