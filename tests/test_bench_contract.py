"""The traced benchmark run wraps dexroute's entry points by name; these
names must exist, `solve` must reach them, and uninstalling must put every
original back."""

import json
import os
import sys

import numpy as np

import dexroute as dx
from dexroute import generate, kernels, solver

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import tracer  # noqa: E402


def test_install_wraps_what_solve_calls_and_uninstall_restores():
    rec = tracer.Recorder()
    rec.install()
    try:
        saved = list(rec._saved)
        for name in ("minimize", "initial_point", "net_trade", "solve"):
            assert any(owner is solver and attr == name for owner, attr, _ in saved)
        snap = generate.generate_snapshot(16, 3)
        dx.solve(snap, dx.TotalArbitrage(snap.prices))
    finally:
        rec.uninstall()
    names = [s.name for s in rec.spans]
    assert names.count("solver.solve") == 1
    assert names.count("solver.minimize") == 1
    assert names.count("solver.initial_point") == 1
    assert names.count("core.net_trade") == 1
    assert "kernels.gmean" in names
    for owner, attr, original in saved:
        assert vars(owner).get(attr) is original, f"{owner.__name__}.{attr} not restored"
        assert not hasattr(getattr(owner, attr), "__wrapped__")


def test_traced_solve_sees_every_market_kind():
    # the kernels must be looked up when a solve runs, not bound at import,
    # or the traced run's per-layer kernel metrics read zero
    tm = dx.TokenMap
    markets = [
        dx.GeomMeanMarket(np.array([1000.0, 1500.0]), (0.5, 0.5), 0.997, tm((0, 1))),
        dx.BoundedProductSegment(np.array([10.0, 10.0]), 90.0, 90.0, 1.0, tm((1, 2))),
        dx.Curve2Market(np.array([100.0, 120.0]), 5.0, 0.999, tm((0, 2))),
        generate.make_ladder(10, seed=3, token_map=tm((0, 2))),
    ]
    snap = dx.MarketSnapshot(dx.AssetUniverse(("A", "B", "C")), markets)
    rec = tracer.Recorder()
    rec.install()
    try:
        dx.solve(snap, dx.TotalArbitrage(np.array([1.0, 1.0, 1.0])))
    finally:
        rec.uninstall()
    names = {s.name for s in rec.spans}
    assert {"kernels.gmean", "kernels.bounded", "markets.find_arb.curve2"} <= names
    # the aggregate's segments ride in the bounded batch with the bounded market
    assert "markets.find_arb.aggregate" not in names
    assert all(s.attrs["m"] == 11 for s in rec.spans if s.name == "kernels.bounded")


def test_a_loaded_snapshot_solves_with_no_per_market_objects(monkeypatch):
    # per-market work coming back into the load or the solve would show as
    # a stacking of market rows or a TokenMap per market
    text = dx.dumps_snapshot(generate.generate_snapshot(2000, 5))
    calls = {"columns": 0, "TokenMap": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernels, "columns", counted("columns", kernels.columns))
    monkeypatch.setattr(dx.TokenMap, "__post_init__", counted("TokenMap", dx.TokenMap.__post_init__))
    snap = dx.snapshot_from_dict(json.loads(text))
    basket = np.zeros(snap.n)
    basket[:3] = 10.0
    for obj in (dx.TotalArbitrage(snap.prices), dx.BasketLiquidation(basket, 4)):
        assert dx.solve(snap, obj).converged
    assert calls == {"columns": 0, "TokenMap": 0}
    dx.TokenMap((0, 1))
    pool = dx.GeomMeanMarket(np.ones(2), (0.5, 0.5), 1.0, dx.TokenMap((0, 1)))
    dx.MarketSnapshot(snap.universe, [pool])
    assert calls == {"columns": 1, "TokenMap": 2}  # the counters see what they count
