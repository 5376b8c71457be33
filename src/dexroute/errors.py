"""Exception types shared across the package."""


class DexRouteError(Exception):
    """Base error for all dexroute failures."""


class DimensionError(DexRouteError, ValueError):
    """A vector does not have the length required by its token map."""


class DomainError(DexRouteError, ValueError):
    """An input is outside the mathematical domain (e.g. nonpositive price)."""


class UnboundedError(DexRouteError, RuntimeError):
    """An arbitrage subproblem (or the dual) has no finite optimum."""


class RejectedTradeError(DexRouteError, ValueError):
    """A trade violates a market's acceptance condition."""


class ConfigurationError(DexRouteError, ValueError):
    """Invalid snapshot / market configuration (bad fee, empty aggregate, ...)."""


class InvalidMarketError(DexRouteError, ValueError):
    """A user-supplied market fails basic shape checks (non-concave f, ...)."""
