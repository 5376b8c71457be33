"""Seeded inputs and closed-loop op runners for the three workloads.

Every input is drawn from ``--seed`` through numpy ``SeedSequence`` streams,
so one seed always gives byte-identical snapshot JSON.  Each workload runs in
rounds: a round is a fixed list of ops over the same inputs, starting from
freshly loaded snapshots, and a run stops after the first round that ends
once the measuring time is up.  A run therefore covers whole rounds, and its
failure ratio does not depend on where the clock stopped.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

import dexroute as dx
from dexroute import cli, generate, oracle
from dexroute.errors import RejectedTradeError

import verify

ORACLE_SAMPLE = 32
LADDER_SEGMENTS = 200  # segments per aggregate, as in the ROADMAP baseline
MIXED_CORE_M = 256     # gmean pools in each mixed-network snapshot
MIXED_JITTER = 0.01    # relative move of mixed-network external prices per seed
BLOCK_M = 2000         # gmean pools in the block-stream snapshot
BLOCK_AGGREGATES = 3


def rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass
class Op:
    """One attempted op: latency at reference speed, verdict and what the
    verifier saw; raw_ms is the latency as timed."""

    ms: float
    ok: bool
    raw_ms: float = math.nan
    converged: bool | None = None
    gap_rel: float = math.nan
    reason: str = ""


# Host-speed probe.  The shared host's speed changes by up to 1.7x within
# seconds, so every timed op is bracketed by a fixed probe that shares no
# code with dexroute, and its time is scaled to the speed at which the probe
# takes PROBE_REF_MS (about its time on the host of the recorded baseline
# when nothing slows that host down).
PROBE_REF_MS = 12.0
_PROBE_X = np.linspace(0.5, 2.0, 10_000)


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def probe_ms() -> float:
    """Time a fixed mix of numpy array work and Python object churn, in
    about equal shares.  Over a noisy 150 s of block-stream ops on the
    baseline host, array work alone under-corrected the ops' slowdown by
    about a third and object churn alone over-corrected it by a fifth; the
    mix tracked it."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(45):
        acc += float((np.power(_PROBE_X, 0.37 + 0.01 * i) * np.log1p(_PROBE_X) / (_PROBE_X + i)).sum())
    cells = {}
    for j in range(15_000):
        c = _Cell(j, (j, j + 1))
        cells[j % 977] = c
        c.a += len(c.b)
    return (time.perf_counter() - t0) * 1e3


def calibrated(fn):
    """Run fn between two probes; return (result, raw ms, ms at reference speed)."""
    before = probe_ms()
    t0 = time.perf_counter()
    result = fn()
    raw = (time.perf_counter() - t0) * 1e3
    return result, raw, raw * 2.0 * PROBE_REF_MS / (before + probe_ms())


def _timed(fn):
    """Run one op; an op that raises is a failed op, not a failed run.
    Returns (result, the op's times as an unverified Op, error or None)."""
    def guarded():
        try:
            return fn(), None
        except (Exception, SystemExit) as e:
            return None, f"{type(e).__name__}: {e}"
    (result, err), raw, ms = calibrated(guarded)
    return result, Op(ms, False, raw_ms=raw), err


def _sample(markets, seed: int, *key: int) -> list:
    """Fixed seeded sample of markets for the oracle cross-check; every
    curve2 pool is always included, aggregates have no trading function."""
    idx = [i for i, mk in enumerate(markets) if type(mk).__name__ != "AggregateMarket"]
    pick = set(rng(seed, *key).choice(len(idx), min(ORACLE_SAMPLE, len(idx)), replace=False).tolist())
    pick |= {k for k, i in enumerate(idx) if type(markets[i]).__name__ == "Curve2Market"}
    return [(idx[k], markets[idx[k]]) for k in sorted(pick)]


def _op_from(sol, op, err, table_fn, objective, sample) -> Op:
    """Verdict on one library solve, checked against live market state."""
    if err is not None:
        return replace(op, reason=err)
    ten = np.array([t.tendered for t in sol.trades])
    rec = np.array([t.received for t in sol.trades])
    cert = verify.certify(table_fn(), objective, sol.nu, ten, rec, sol.psi.psi, sol.utility,
                          sample, oracle.reference_forward)
    return replace(op, ok=cert.ok and sol.converged, converged=bool(sol.converged), gap_rel=cert.gap_rel,
                   reason="; ".join(cert.reasons) or ("" if sol.converged else "not converged"))


def _warm_up():
    snap = generate.generate_snapshot(64, 0)
    dx.solve(snap, dx.TotalArbitrage(snap.prices))


# ---------------------------------------------------------------------------
# desk-gmean-10k: `dexroute route` in-process on pre-written gmean snapshots
# ---------------------------------------------------------------------------

class DeskGmean:
    name = "desk-gmean-10k"
    tail_pct = 15
    m = 10_000
    instances = 4

    def __init__(self, seed: int, work: str):
        self.seed, self.work = seed, work
        self.seeds = [int(s) for s in np.random.SeedSequence([seed, 1]).generate_state(self.instances)]
        self.checks = {}

    def setup(self) -> list[str]:
        texts = []
        for k, s in enumerate(self.seeds):
            text = dx.dumps_snapshot(generate.generate_snapshot(self.m, s))
            with open(self._path(k), "w") as f:
                f.write(text)
            texts.append(text)
        warm = os.path.join(self.work, "warm.json")
        with open(warm, "w") as f:
            f.write(dx.dumps_snapshot(generate.generate_snapshot(64, 0)))
        self._route(warm, os.path.join(self.work, "warm-out.json"))
        return texts

    def _checks(self, k):
        """Verifier inputs for instance k, parsed once from its file."""
        if k not in self.checks:
            with open(self._path(k)) as f:
                d = json.load(f)
            idx = sorted(rng(self.seed, 4, k).choice(len(d["markets"]), ORACLE_SAMPLE, replace=False).tolist())
            self.checks[k] = (
                verify.table_from_docs(len(d["assets"]), d["markets"]),
                {"kind": "arbitrage", "valuation": np.asarray(d["prices"], dtype=float)},
                [(i, dx.markets.market_from_dict(d["markets"][i])) for i in idx],
            )
        return self.checks[k]

    def _path(self, k):
        return os.path.join(self.work, f"desk-{self.seeds[k]}.json")

    @staticmethod
    def _route(snapshot, out):
        try:
            return cli.main(["route", "--snapshot", snapshot, "--objective", "arbitrage", "--out", out])
        except SystemExit as e:
            return e.code

    def round(self, before_op) -> list[Op]:
        ops = []
        for k in range(self.instances):
            out = os.path.join(self.work, "desk-out.json")
            if os.path.exists(out):
                os.remove(out)
            before_op()
            code, op, err = _timed(lambda: self._route(self._path(k), out))
            ops.append(self._check(k, code, op, err, out))
        return ops

    def _check(self, k, code, op, err, out) -> Op:
        if err is not None or not os.path.exists(out):
            return replace(op, reason=err or f"route exited {code} without output")
        with open(out) as f:
            sol = json.load(f)
        m = len(sol["trades"])
        ten = np.array([t["tendered"] for t in sol["trades"]]).reshape(m, 2)
        rec = np.array([t["received"] for t in sol["trades"]]).reshape(m, 2)
        table, objective, sample = self._checks(k)
        cert = verify.certify(table, objective, sol["nu"], ten, rec, sol["psi"],
                              sol["utility"], sample, oracle.reference_forward)
        ok = cert.ok and code == 0
        reason = "; ".join(cert.reasons) or ("" if code == 0 else f"route exited {code}")
        return replace(op, ok=ok, converged=bool(sol["converged"]), gap_rel=cert.gap_rel, reason=reason)


# ---------------------------------------------------------------------------
# mixed-network: gmean core + bounded + aggregates + curve2, two objectives
# ---------------------------------------------------------------------------

def _ladder(q, liq, s, pair, r) -> dx.AggregateMarket:
    """Tick-range ladder of s segments over [q/3, 3q], consistent with spot q:
    segments below q hold only asset 2, segments above only asset 1."""
    grid = q * np.geomspace(1.0 / 3.0, 3.0, s + 1)
    tm = dx.TokenMap(pair)
    segs = []
    for pa, pb in zip(grid[:-1], grid[1:]):
        L = liq * r.uniform(0.5, 1.5)
        a, b = L / math.sqrt(pb), L * math.sqrt(pa)
        qq = min(max(q, pa), pb)
        r1, r2 = max(L / math.sqrt(qq) - a, 0.0), max(L * math.sqrt(qq) - b, 0.0)
        segs.append(dx.BoundedProductSegment(np.array([r1, r2]), a, b, 1.0, tm))
    return dx.AggregateMarket(segs, 1.0, tm)


def mixed_snapshot(template: int, seed: int):
    """One mixed snapshot and its liquidation basket.

    The template fixes the topology: the gmean core (the repo generator at
    seed ``template``), 16 standalone bounded segments, 4 aggregates of
    LADDER_SEGMENTS segments and one curve2 pool (reserves 1500/1600, amp 3,
    fee 0.999, as in the ROADMAP baseline), plus the basket and output
    token.  The seed moves every external price by up to +-MIXED_JITTER;
    reserves and baskets are the template's.
    """
    base = generate.generate_snapshot(MIXED_CORE_M, template)
    n, p, mks = base.n, base.prices, list(base.markets)
    r = rng(template, 2, 0)

    def pair():
        a = int(r.integers(n))
        return a, int((a + 1 + r.integers(n - 1)) % n)

    for _ in range(16):
        a, b = pair()
        q, L = p[a] / p[b] * r.uniform(0.8, 1.25), r.uniform(1000.0, 2000.0)
        al, be = L / math.sqrt(q * 1.5), L * math.sqrt(q / 1.5)
        mks.append(dx.BoundedProductSegment(
            np.array([L / math.sqrt(q) - al, L * math.sqrt(q) - be]), al, be, 0.997, dx.TokenMap((a, b))))
    for _ in range(4):
        a, b = pair()
        q = p[a] / p[b] * r.uniform(0.8, 1.25)
        mks.append(_ladder(q, r.uniform(100.0, 1000.0), LADDER_SEGMENTS, (a, b), r))
    a, b = pair()
    mks.append(dx.Curve2Market(np.array([1500.0, 1600.0]), 3.0, 0.999, dx.TokenMap((a, b))))

    prices = p * (1.0 + MIXED_JITTER * rng(seed, 9, template).uniform(-1.0, 1.0, n))
    rb = rng(template, 3, 0)
    idx = rb.choice(n, 4, replace=False)
    basket = np.zeros(n)
    basket[idx[1:]] = rb.uniform(10.0, 100.0, 3)
    snap = dx.MarketSnapshot(base.universe, mks, generator=f"perfbench mixed template={template} seed={seed}",
                             prices=prices)
    return snap, basket, int(idx[0])


class MixedNetwork:
    name = "mixed-network"
    tail_pct = 35
    templates = 8

    def __init__(self, seed: int, work: str):
        self.seed, self.work = seed, work

    def setup(self) -> list[str]:
        self.cases = []
        texts = []
        for j in range(self.templates):
            snap, basket, out = mixed_snapshot(j, self.seed)
            text = dx.dumps_snapshot(snap)
            texts.append(text)
            self.cases.append((text, basket, out))
        _warm_up()
        return texts

    def round(self, before_op) -> list[Op]:
        ops = []
        for j, (text, basket, out) in enumerate(self.cases):
            snap = dx.snapshot_from_dict(json.loads(text))
            sample = _sample(snap.markets, self.seed, 6, j)
            for objective, obj in (
                ({"kind": "arbitrage", "valuation": snap.prices}, dx.TotalArbitrage(snap.prices)),
                ({"kind": "liquidate", "basket": basket, "out_token": out}, dx.BasketLiquidation(basket, out)),
            ):
                before_op()
                sol, op, err = _timed(lambda: dx.solve(snap, obj))
                ops.append(_op_from(sol, op, err, lambda: verify.table_from_markets(snap.n, snap.markets),
                                    objective, sample))
        return ops


# ---------------------------------------------------------------------------
# block-stream: mutate a live snapshot, drift prices, re-solve
# ---------------------------------------------------------------------------

def block_snapshot(seed: int):
    """gmean snapshot from the repo generator plus ladders on random pairs."""
    base = generate.generate_snapshot(BLOCK_M, int(np.random.SeedSequence([seed, 2]).generate_state(1)[0]))
    r = rng(seed, 7, 0)
    mks = list(base.markets)
    for _ in range(BLOCK_AGGREGATES):
        a = int(r.integers(base.n))
        b = int((a + 1 + r.integers(base.n - 1)) % base.n)
        mks.append(_ladder(base.prices[a] / base.prices[b], r.uniform(100.0, 1000.0), LADDER_SEGMENTS,
                           (a, b), r))
    return dx.MarketSnapshot(base.universe, mks, generator=f"perfbench block seed={seed}", prices=base.prices)


def _gmean_out(mk, d, direction):
    """Output for input d on a live gmean pool, from its trading function."""
    r_in, r_out = (mk.reserves[0], mk.reserves[1]) if direction == 1 else (mk.reserves[1], mk.reserves[0])
    w_in, w_out = (mk.weights[0], mk.weights[1]) if direction == 1 else (mk.weights[1], mk.weights[0])
    return r_out * (1.0 - (r_in / (r_in + mk.fee * d)) ** (w_in / w_out))


def _local_trade(d, out, direction):
    t = np.array([d, 0.0]) if direction == 1 else np.array([0.0, d])
    r = np.array([0.0, out]) if direction == 1 else np.array([out, 0.0])
    return dx.Trade(t, r)


class BlockStream:
    name = "block-stream"
    tail_pct = 75
    blocks = 8
    swap_share = 0.02
    liquidity_updates = 3

    def __init__(self, seed: int, work: str):
        self.seed, self.work = seed, work

    def setup(self) -> list[str]:
        self.text = dx.dumps_snapshot(block_snapshot(self.seed))
        _warm_up()
        return [self.text]

    def _plan(self, snap, gm_idx, agg_idx, k, prices):
        """Block k's seeded mutations, sized from the live reserves at the
        start of the block, and its drifted prices.  Planning is not timed."""
        r = rng(self.seed, 8, k)
        swaps = []
        for i in r.choice(gm_idx, max(1, int(self.swap_share * len(gm_idx))), replace=False):
            mk = snap.markets[i]
            direction = int(r.integers(1, 3))
            d = r.uniform(0.005, 0.03) * mk.reserves[direction - 1]
            swaps.append((mk, _local_trade(d, _gmean_out(mk, d, direction) * (1.0 - 1e-6), direction)))
        agg = snap.markets[agg_idx[int(r.integers(len(agg_idx)))]]
        direction = int(r.integers(1, 3))
        seg = verify.table_from_markets(snap.n, [agg]).agg[0][1]
        d = r.uniform(0.005, 0.02) * float(np.sum(seg["r1" if direction == 1 else "r2"]))
        swaps.append((agg, _local_trade(d, verify.aggregate_forward(seg, d, direction) * (1.0 - 1e-6),
                                        direction)))
        updates = [(snap.markets[i], r.uniform(0.01, 0.05) * snap.markets[i].reserves)
                   for i in r.choice(gm_idx, self.liquidity_updates, replace=False)]
        agg = snap.markets[agg_idx[int(r.integers(len(agg_idx)))]]
        s = agg.segments[int(r.integers(len(agg.segments)))]
        updates.append((agg, r.uniform(0.01, 0.05) * s.reserves, s.active_interval()))
        return swaps, updates, prices * np.exp(0.005 * r.standard_normal(prices.shape[0]))

    def _block(self, snap, swaps, updates, prices):
        for mk, trade in swaps:
            self._swap(mk, trade)
        for args in updates:
            dx.update_liquidity(*args)
        return dx.solve(snap, dx.TotalArbitrage(prices))

    @staticmethod
    def _swap(mk, trade):
        """A rejected external swap is not a failed op; the traced run
        counts rejections in markets.swap.rejected_ratio."""
        try:
            dx.swap(mk, trade)
        except RejectedTradeError:
            pass

    def round(self, before_op) -> list[Op]:
        snap = dx.snapshot_from_dict(json.loads(self.text))
        gm_idx = [i for i, mk in enumerate(snap.markets) if isinstance(mk, dx.GeomMeanMarket)]
        agg_idx = [i for i, mk in enumerate(snap.markets) if isinstance(mk, dx.AggregateMarket)]
        sample = _sample(snap.markets, self.seed, 6, 0)
        prices = snap.prices
        ops = []
        for k in range(self.blocks):
            swaps, updates, prices = self._plan(snap, gm_idx, agg_idx, k, prices)
            before_op()
            sol, op, err = _timed(lambda: self._block(snap, swaps, updates, prices))
            objective = {"kind": "arbitrage", "valuation": prices}
            ops.append(_op_from(sol, op, err, lambda: verify.table_from_markets(snap.n, snap.markets),
                                objective, sample))
        return ops


WORKLOADS = {w.name: w for w in (DeskGmean, MixedNetwork, BlockStream)}
