"""Asset universe, index maps, trades and the market snapshot data model.

Global indexing: an asset's index is its position in the universe's symbol
list.  Each market carries a token map (the list of global indices for its
local assets); no selection matrix is ever materialized.
"""

from __future__ import annotations

import copy
import gc
import json
import operator
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigurationError, DimensionError


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
            if any(isinstance(i, bool) for i in self.global_indices):
                raise TypeError("a boolean is not an index")
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


class MarketSnapshot:
    """The full problem data: the asset universe, and the markets held as the
    columns of the batched kernels.

    Each market is one row, and an aggregate one row per segment, in market
    order; `owner`, `i1` and `i2` give each row's market and the global
    indices of its two assets.  `blocks[kernel]` holds, one row per kernel
    argument, the columns of the rows that name that kernel, and
    `block_rows[kernel]` places them among all rows; `other` holds the
    (row, market) pairs that name none.  `markets`, a tuple, is built on its
    first read, by one builder, from the columns alone: each closed-form
    market and segment a view on its column, so `swap` and `update_liquidity`
    through it change what the next solve reads.  `m` is read off `owner`.

    A snapshot owns its markets and its prices: `MarketSnapshot(universe,
    markets)` stacks the objects' rows into new blocks and builds its markets
    on them, never changes the objects it is given, and copies the prices.
    A copy, deep copy or pickle of a snapshot owns copies of the columns, of
    each `other` market and of the prices, and reads no `markets`; neither
    does `dumps_snapshot`.
    """

    def __init__(self, universe: AssetUniverse, markets, generator: str | None = None,
                 prices: np.ndarray | None = None):
        self._set(universe, _stack(markets, universe.n), generator, prices)

    def _set(self, universe, columns, generator, prices) -> "MarketSnapshot":
        owner, i1, i2, blocks, block_rows, other, aggregates = columns
        if prices is not None:
            prices = np.array(prices, dtype=float)  # its own copy
            if prices.shape != (universe.n,):
                raise ConfigurationError("prices length does not match universe")
        self.universe, self.generator, self.prices = universe, generator, prices
        self.owner, self.i1, self.i2, self._aggregates = owner, i1, i2, aggregates
        self.blocks, self.block_rows, self.other, self._markets = blocks, block_rows, other, None
        return self

    def __reduce__(self):
        return _snapshot, (self.universe, self.owner, self.i1, self.i2, self.blocks, self.block_rows,
                           self.other, self._aggregates, self.generator, self.prices)

    @property
    def n(self) -> int:
        return self.universe.n

    @property
    def m(self) -> int:
        return int(self.owner[-1]) + 1 if len(self.owner) else 0

    @property
    def markets(self) -> tuple:
        if self._markets is None:  # the one builder of a snapshot's markets
            from . import markets as mk  # deferred: markets imports core
            parts = dict(self.other)  # row -> market or segment
            for cls in (mk.GeomMeanMarket, mk.BoundedProductSegment):
                if cls.kernel in self.blocks:
                    rows = self.block_rows[cls.kernel]
                    tok, block = np.stack([self.i1[rows], self.i2[rows]]), self.blocks[cls.kernel]
                    parts.update((r, cls._view(block, tok, j)) for j, r in enumerate(rows.tolist()))
            edge = np.flatnonzero(np.diff(self.owner, prepend=-1, append=self.m)).tolist()
            markets = [parts[r] for r in edge[:-1]]  # each market's first row
            for i in self._aggregates.tolist():
                segments = [parts[r] for r in range(edge[i], edge[i + 1])]
                markets[i] = mk.AggregateMarket(segments, segments[0].fee, segments[0].token_map)
            self._markets = tuple(markets)
        return self._markets


def _snapshot(universe, owner, i1, i2, blocks, block_rows, other, aggregates, generator, prices):
    """A copy, deep copy or unpickled snapshot: copies of the columns, `other` markets and prices."""
    columns = copy.deepcopy((owner, i1, i2, blocks, block_rows, other, aggregates))
    return MarketSnapshot.__new__(MarketSnapshot)._set(universe, columns, generator, prices)


def _stack(markets, n: int) -> tuple:
    """The snapshot columns of market objects over n assets: a row of a new
    block for each part that names a kernel, a deep copy of each other market.
    The snapshot builds its markets from them on first read, and the objects
    passed in are only read."""
    markets = tuple(markets)
    # kernel name (None: no kernel) -> (rows, parts); a tuple per row instead
    # would give the garbage collector one more object per market to chase
    groups, owner, tokens = defaultdict(lambda: ([], [])), [], []
    for i, mkt in enumerate(markets):
        pair = mkt.token_map.global_indices
        if max(pair) >= n:
            raise ConfigurationError(f"market {i} references unknown asset index")
        for part in getattr(mkt, "segments", (mkt,)):
            rows, parts = groups[part.kernel]
            rows.append(len(owner))
            parts.append(part)
            owner.append(i)
            tokens.append(pair)
    other = [(r, copy.deepcopy(p)) for r, p in zip(*groups.pop(None, ((), ())))]
    i1, i2 = np.array(tokens, dtype=np.intp).reshape(-1, 2).T.copy()
    blocks = {name: kernels.columns(parts) for name, (_, parts) in groups.items()}
    block_rows = {name: np.array(rows, dtype=np.intp) for name, (rows, _) in groups.items()}
    aggregates = np.flatnonzero([hasattr(mkt, "segments") for mkt in markets])
    return np.array(owner, dtype=np.intp), i1, i2, blocks, block_rows, other, aggregates


def net_trade(snapshot: MarketSnapshot, tendered, received) -> NetworkTrade:
    """Sum the per-market signed trades into the network trade vector;
    `tendered` and `received` are (m, 2) arrays with rows in market order."""
    tendered, received = np.asarray(tendered, dtype=float), np.asarray(received, dtype=float)
    if tendered.shape != (snapshot.m, 2) or received.shape != (snapshot.m, 2):
        raise DimensionError(f"expected ({snapshot.m}, 2) trade arrays, "
                             f"got {tendered.shape} and {received.shape}")
    first = np.flatnonzero(np.diff(snapshot.owner, prepend=-1))  # each market's first row
    tokens = np.column_stack([snapshot.i1[first], snapshot.i2[first]])
    psi = np.bincount(tokens.ravel(), weights=(received - tendered).ravel(), minlength=snapshot.n)
    return NetworkTrade(psi)


# ---------------------------------------------------------------------------
# Snapshot JSON format
# ---------------------------------------------------------------------------

def snapshot_from_dict(doc: dict) -> MarketSnapshot:
    """Read the markets column by column (`markets.read_columns`); if an entry
    is malformed, build them one at a time, so the constructor that refuses
    the first such entry names it."""
    from . import markets as mk  # deferred: markets imports core

    try:
        universe = AssetUniverse(tuple(doc["assets"]))
        market_docs = list(doc["markets"])
    except KeyError as e:
        raise ConfigurationError(f"snapshot missing field {e}") from e
    except TypeError as e:
        raise ConfigurationError(f"snapshot needs 'assets' and 'markets' lists: {e}") from e
    columns = mk.read_columns(market_docs, universe.n)
    if columns is None:
        market_list = []
        for i, d in enumerate(market_docs):
            try:
                market_list.append(mk.market_from_dict(d))
            except KeyError as e:
                raise ConfigurationError(f"snapshot missing field {e} in market {i}") from e
            except (TypeError, AttributeError, ValueError) as e:
                # an entry of the wrong JSON type, a number that is not one, or one its constructor refuses
                raise ConfigurationError(f"market {i}: {e}") from e
        columns = _stack(market_list, universe.n)
    prices = np.asarray(doc["prices"], dtype=float) if "prices" in doc else None
    return MarketSnapshot.__new__(MarketSnapshot)._set(universe, columns, doc.get("generator"), prices)


def snapshot_to_dict(snapshot: MarketSnapshot) -> dict:
    doc: dict = {"assets": list(snapshot.universe.symbols)}
    if snapshot.generator is not None:
        doc["generator"] = snapshot.generator
    if snapshot.prices is not None:
        doc["prices"] = [float(p) for p in snapshot.prices]
    doc["markets"] = [m.to_dict() for m in snapshot.markets]
    return doc


def load_snapshot(path) -> MarketSnapshot:
    # json builds a dict and lists per market entry, none of them cyclic, so
    # the cyclic collector is paused until the document is read and freed:
    # at m = 10^4 it would run some 50 gen-0 collections over it, and paused
    # in json alone, one collection over all of it right after
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path) as f:
            return snapshot_from_dict(json.load(f))
    finally:
        if enabled:
            gc.enable()


def _encoded(values: np.ndarray) -> list[str]:
    """Each float of a 1-D array as json.dumps spells it (-0.0, NaN, Infinity), from one C-encoder call."""
    return json.dumps(values.tolist())[1:-1].split(", ") if len(values) else []


# a market entry of a snapshot document, from the comma after the entry before,
# split around its row's 7 values: its tokens, then its column; an aggregate's
# segment leaves out its tokens and fee, which its aggregate's head writes
_FRAMES = {name: tuple(text.split("@")) for name, text in (
    ("gmean_arb_batch", ',\n    {\n      "type": "gmean",\n      "tokens": [\n        @,\n        @\n      ],\n'
     '      "reserves": [\n        @,\n        @\n      ],\n      "weights": [\n        @,\n        @\n      ],\n'
     '      "fee": @\n    }'),
    ("bounded_arb_batch", ',\n    {\n      "type": "bounded_product",\n      "tokens": [\n        @,\n        @\n'
     '      ],\n      "reserves": [\n        @,\n        @\n      ],\n      "alpha": @,\n      "beta": @,\n'
     '      "fee": @\n    }'),
    ("segment", ',\n        {\n          "reserves": [\n            @@@,\n            @\n          ],\n'
     '          "alpha": @,\n          "beta": @\n        }@'))}
_AGGREGATE = (',\n    {\n      "type": "aggregate",\n      "tokens": [\n        %s,\n        %s\n      ],\n'
              '      "fee": %s,\n      "segments": [' + _FRAMES["segment"][0][1:])  # and its first segment's lead


def dumps_snapshot(snapshot: MarketSnapshot) -> str:
    """The text of json.dumps(snapshot_to_dict(snapshot), indent=2) + "\n",
    byte for byte, from the columns, with `markets` unread: one join of each
    row's `_FRAMES` pieces around its tokens and its floats, which `_encoded`
    spells once per distinct bit pattern of a block.  Only `other` markets go
    through `to_dict` and the indented encoder.  Serialize -> parse ->
    serialize is bit-identical."""
    empty = MarketSnapshot(snapshot.universe, (), snapshot.generator, snapshot.prices)  # the same head
    text = json.dumps(snapshot_to_dict(empty), indent=2)  # [:-3] opens its "markets": []
    owner, aggregates = snapshot.owner, snapshot._aggregates
    if not len(owner):
        return text + "\n"
    parts = np.empty((len(owner), 15), dtype=object)  # a row's 8 pieces, and its 7 values between them
    for name, rows in snapshot.block_rows.items():
        parts[rows, 0::2] = _FRAMES[name]
        bits, at = np.unique(snapshot.blocks[name].T.ravel().view(np.int64), return_inverse=True)
        parts[rows, 5::2] = np.array(_encoded(bits.view(float)), dtype=object)[at].reshape(-1, 5)
    parts[:, 1], parts[:, 3] = (list(map(str, tokens.tolist())) for tokens in (snapshot.i1, snapshot.i2))
    segments, first = np.flatnonzero(np.isin(owner, aggregates)), np.searchsorted(owner, aggregates)
    parts[segments, 0::2] = _FRAMES["segment"]
    # an aggregate's head takes its first row's tokens and fee, which no segment writes
    parts[first, 0] = [_AGGREGATE % tuple(head) for head in parts[first][:, [1, 3, 13]].tolist()]
    parts[np.ix_(segments, (1, 3, 13))] = ""
    parts[np.searchsorted(owner, aggregates, "right") - 1, 14] = "\n      ]\n    }"  # each one's last row
    for r, market in snapshot.other:
        parts[r, 0], parts[r, 1:] = ",\n    " + json.dumps(market.to_dict(), indent=2).replace("\n", "\n    "), ""
    parts[0, 0] = text[:-3] + parts[0, 0][1:]  # the first entry follows "[" with no comma
    parts[-1, 14] += "\n  ]\n}\n"
    return "".join(parts.ravel().tolist())


def save_snapshot(snapshot: MarketSnapshot, path):
    with open(path, "w") as f:
        f.write(dumps_snapshot(snapshot))
