"""Asset universe, index maps, trades and the market snapshot data model.

Global indexing: an asset's index is its position in the universe's symbol
list.  Each market carries a token map (the list of global indices for its
local assets); no selection matrix is ever materialized.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, DomainError


@dataclass(frozen=True)
class AssetUniverse:
    """Ordered universe of asset symbols; position defines the global index."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ConfigurationError("asset symbols must be unique")
        if len(self.symbols) < 2:
            raise ConfigurationError("need at least two assets")

    @property
    def n(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        return self.symbols.index(symbol)


@dataclass(frozen=True)
class TokenMap:
    """Local-to-global index map for one market (the selection matrix as a list)."""

    global_indices: tuple[int, ...]

    def __post_init__(self):
        try:
            idx = tuple(map(operator.index, self.global_indices))
        except TypeError as e:
            raise ConfigurationError(
                f"token map indices must be integers: {self.global_indices!r}") from e
        object.__setattr__(self, "global_indices", idx)
        if len(set(idx)) != len(idx):
            raise ConfigurationError(f"token map indices must be distinct: {idx}")
        if any(i < 0 for i in idx):
            raise ConfigurationError(f"negative global index in token map: {idx}")

    @property
    def n_local(self) -> int:
        return len(self.global_indices)


def scatter(token_map: TokenMap, local: np.ndarray, n: int) -> np.ndarray:
    """Place a local vector into a length-n global vector, zeros elsewhere."""
    local = np.asarray(local, dtype=float)
    if local.shape != (token_map.n_local,):
        raise DimensionError(
            f"local vector has length {local.shape}, map expects {token_map.n_local}"
        )
    if max(token_map.global_indices) >= n:
        raise DimensionError("token map index out of range for universe size")
    out = np.zeros(n)
    out[list(token_map.global_indices)] = local
    return out


def gather(token_map: TokenMap, global_vec: np.ndarray) -> np.ndarray:
    """Select the local components of a global vector."""
    global_vec = np.asarray(global_vec, dtype=float)
    if global_vec.ndim != 1 or max(token_map.global_indices) >= global_vec.shape[0]:
        raise DimensionError("global vector too short for token map")
    return global_vec[list(token_map.global_indices)]


@dataclass(frozen=True)
class Trade:
    """A per-market trade split into nonnegative tendered/received baskets."""

    tendered: np.ndarray
    received: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.tendered, dtype=float)
        r = np.asarray(self.received, dtype=float)
        if t.shape != r.shape:
            raise DimensionError("tendered/received length mismatch")
        if np.any(t < 0) or np.any(r < 0):
            raise ValueError("tendered and received must be nonnegative")
        object.__setattr__(self, "tendered", t)
        object.__setattr__(self, "received", r)

    @classmethod
    def zero(cls, n_local: int = 2) -> "Trade":
        return cls(np.zeros(n_local), np.zeros(n_local))

    @property
    def signed(self) -> np.ndarray:
        """The signed basket (received minus tendered)."""
        return self.received - self.tendered

    def is_zero(self) -> bool:
        return not (self.tendered.any() or self.received.any())


@dataclass(frozen=True)
class NetworkTrade:
    """Net basket over the whole network, in global indices."""

    psi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "psi", np.asarray(self.psi, dtype=float))


@dataclass
class MarketSnapshot:
    """The full problem data: the asset universe plus all markets."""

    universe: AssetUniverse
    markets: list
    generator: str | None = None
    prices: np.ndarray | None = None

    def __post_init__(self):
        n = self.universe.n
        for i, m in enumerate(self.markets):
            if max(m.token_map.global_indices) >= n:
                raise ConfigurationError(f"market {i} references unknown asset index")
        if self.prices is not None:
            self.prices = np.asarray(self.prices, dtype=float)
            if self.prices.shape != (n,):
                raise ConfigurationError("prices length does not match universe")

    @property
    def n(self) -> int:
        return self.universe.n

    @property
    def m(self) -> int:
        return len(self.markets)


def net_trade(snapshot: MarketSnapshot, tendered, received) -> NetworkTrade:
    """Sum the per-market signed trades into the network trade vector;
    `tendered` and `received` are (m, 2) arrays with rows in market order."""
    tendered, received = np.asarray(tendered, dtype=float), np.asarray(received, dtype=float)
    if tendered.shape != (snapshot.m, 2) or received.shape != (snapshot.m, 2):
        raise DimensionError(f"expected ({snapshot.m}, 2) trade arrays, "
                             f"got {tendered.shape} and {received.shape}")
    tokens = np.array([m.token_map.global_indices for m in snapshot.markets], dtype=np.intp)
    psi = np.bincount(tokens.ravel(), weights=(received - tendered).ravel(), minlength=snapshot.n)
    return NetworkTrade(psi)


# ---------------------------------------------------------------------------
# Snapshot JSON format
# ---------------------------------------------------------------------------

def snapshot_from_dict(doc: dict) -> MarketSnapshot:
    from . import markets as mk  # deferred: markets imports core

    try:
        universe = AssetUniverse(tuple(doc["assets"]))
        market_docs = list(doc["markets"])
    except KeyError as e:
        raise ConfigurationError(f"snapshot missing field {e}") from e
    except TypeError as e:
        raise ConfigurationError(f"snapshot needs 'assets' and 'markets' lists: {e}") from e
    market_list = []
    for i, d in enumerate(market_docs):
        try:
            market_list.append(mk.market_from_dict(d))
        except KeyError as e:
            raise ConfigurationError(f"snapshot missing field {e} in market {i}") from e
        except (TypeError, AttributeError, ConfigurationError, DomainError) as e:
            # a market entry of the wrong JSON type, or one its constructor refuses
            raise ConfigurationError(f"market {i}: {e}") from e
    return MarketSnapshot(
        universe,
        market_list,
        generator=doc.get("generator"),
        prices=np.asarray(doc["prices"], dtype=float) if "prices" in doc else None,
    )


def snapshot_to_dict(snapshot: MarketSnapshot) -> dict:
    doc: dict = {"assets": list(snapshot.universe.symbols)}
    if snapshot.generator is not None:
        doc["generator"] = snapshot.generator
    if snapshot.prices is not None:
        doc["prices"] = [float(p) for p in snapshot.prices]
    doc["markets"] = [m.to_dict() for m in snapshot.markets]
    return doc


def load_snapshot(path) -> MarketSnapshot:
    with open(path) as f:
        return snapshot_from_dict(json.load(f))


def dumps_snapshot(snapshot: MarketSnapshot) -> str:
    """Canonical JSON text; serialize -> parse -> serialize is bit-identical."""
    return json.dumps(snapshot_to_dict(snapshot), indent=2) + "\n"


def save_snapshot(snapshot: MarketSnapshot, path):
    with open(path, "w") as f:
        f.write(dumps_snapshot(snapshot))
