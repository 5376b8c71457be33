"""Optimal trade routing across networks of constant function market makers."""

from .core import (
    AssetUniverse,
    MarketSnapshot,
    NetworkTrade,
    TokenMap,
    Trade,
    dumps_snapshot,
    gather,
    load_snapshot,
    net_trade,
    save_snapshot,
    scatter,
    snapshot_from_dict,
    snapshot_to_dict,
)
from .markets import (
    AggregateMarket,
    ArbResult,
    BoundedProductSegment,
    Curve2Market,
    GenericSwapMarket,
    GeomMeanMarket,
    no_trade,
    swap,
    update_liquidity,
)
from .objectives import BasketLiquidation, TotalArbitrage
from .solver import RoutingSolution, SolverConfig, eval_dual, initial_point, solve

__version__ = "0.1.0"
