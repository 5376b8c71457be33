"""Tests of the benchmark's own verifier and input generation.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os

import numpy as np
import pytest

import dexroute as dx
from dexroute import generate, oracle

import run
import tracer
import verify
import workloads


def _two_pools():
    uni = dx.AssetUniverse(("A", "B"))
    pools = [
        dx.GeomMeanMarket(np.array([100.0, 100.0]), (0.5, 0.5), 1.0, dx.TokenMap((0, 1))),
        dx.GeomMeanMarket(np.array([100.0, 400.0]), (0.5, 0.5), 1.0, dx.TokenMap((0, 1))),
    ]
    return dx.MarketSnapshot(uni, pools)


def _certify(snap, sol, objective):
    ten = np.array([t.tendered for t in sol.trades])
    rec = np.array([t.received for t in sol.trades])
    table = verify.table_from_markets(snap.n, snap.markets)
    # aggregates have no trading function for the oracle to evaluate
    sample = [(i, mk) for i, mk in enumerate(snap.markets) if not isinstance(mk, dx.AggregateMarket)]
    return verify.certify(table, objective, sol.nu, ten, rec, sol.psi.psi, sol.utility,
                          sample, oracle.reference_forward)


ARB_11 = {"kind": "arbitrage", "valuation": np.array([1.0, 1.0])}


def test_accepts_a_correct_solve():
    snap = _two_pools()
    sol = dx.solve(snap, dx.TotalArbitrage(ARB_11["valuation"]))
    cert = _certify(snap, sol, ARB_11)
    assert cert.ok, cert.reasons
    assert abs(cert.utility - 50.0) < 1e-6


def test_rejects_a_tampered_trade():
    snap = generate.generate_snapshot(64, 3)
    obj = {"kind": "arbitrage", "valuation": snap.prices}
    sol = dx.solve(snap, dx.TotalArbitrage(snap.prices))
    assert _certify(snap, sol, obj).ok
    i = next(k for k, t in enumerate(sol.trades) if not t.is_zero())
    ten = np.array([t.tendered for t in sol.trades])
    rec = np.array([t.received for t in sol.trades])
    rec[i] *= 1.001   # take a little more than the pool gives
    psi = sol.psi.psi.copy()
    a, b = snap.markets[i].token_map.global_indices
    psi[a] += rec[i, 0] - sol.trades[i].received[0]
    psi[b] += rec[i, 1] - sol.trades[i].received[1]
    table = verify.table_from_markets(snap.n, snap.markets)
    cert = verify.certify(table, obj, sol.nu, ten, rec, psi, float(snap.prices @ psi))
    assert not cert.ok
    assert any("infeasible in live state" in r for r in cert.reasons)

    # an aggregate trade that tenders nothing but receives asset 1
    uni = dx.AssetUniverse(("A", "B"))
    pool = dx.GeomMeanMarket(np.array([100.0, 100.0]), (0.5, 0.5), 1.0, dx.TokenMap((0, 1)))
    ladder = workloads._ladder(1.3, 500.0, 50, (0, 1), np.random.default_rng(0))
    snap = dx.MarketSnapshot(uni, [pool, ladder])
    sol = dx.solve(snap, dx.TotalArbitrage(ARB_11["valuation"]))
    assert _certify(snap, sol, ARB_11).ok
    ten = np.array([t.tendered for t in sol.trades])
    rec = np.array([t.received for t in sol.trades])
    psi = sol.psi.psi - (rec[1] - ten[1])
    ten[1] = 0.0
    rec[1] = [1.0, 0.0]   # receive asset 1 for nothing
    psi += rec[1]
    table = verify.table_from_markets(snap.n, snap.markets)
    cert = verify.certify(table, ARB_11, sol.nu, ten, rec, psi, float(psi.sum()))
    assert not cert.ok
    assert any("infeasible in live state" in r for r in cert.reasons)


def test_flags_the_two_pool_update_liquidity_case():
    """Solve, add liquidity to pool 0, solve again without invalidate()."""
    snap = _two_pools()
    first = dx.solve(snap, dx.TotalArbitrage(ARB_11["valuation"]))
    dx.update_liquidity(snap.markets[0], [0.0, 300.0])
    # the pre-update routing is no longer a certificate for the new state
    assert not _certify(snap, first, ARB_11).ok
    second = dx.solve(snap, dx.TotalArbitrage(ARB_11["valuation"]))
    fresh = dx.solve(dx.snapshot_from_dict(dx.snapshot_to_dict(snap)),
                     dx.TotalArbitrage(ARB_11["valuation"]))
    assert _certify(snap, fresh, ARB_11).ok
    stale = not np.isclose(second.utility, fresh.utility, rtol=1e-9)
    # the verifier rejects the second solve exactly when it is stale
    assert _certify(snap, second, ARB_11).ok == (not stale)


def test_gmean_value_matches_oracle():
    r = np.random.default_rng(0)
    m = 20
    r1, r2 = r.uniform(500, 2000, m), r.uniform(500, 2000, m)
    w1 = np.where(r.random(m) < 0.5, 0.5, 0.8)
    fee = np.full(m, 0.997)
    nu1, nu2 = r.uniform(0.1, 2.0, m), r.uniform(0.1, 2.0, m)
    mine = verify.gmean_arb_value(r1, r2, w1, 1 - w1, fee, nu1, nu2)
    ref = oracle.gmean_reference_objective(r1, r2, w1, 1 - w1, fee, nu1, nu2)
    np.testing.assert_allclose(mine, ref, rtol=1e-7, atol=1e-7)


def test_curve2_forward_matches_oracle():
    mk = dx.Curve2Market(np.array([1500.0, 1600.0]), 3.0, 0.999, dx.TokenMap((0, 1)))
    for d in (0.5, 100.0, 1400.0):
        for direction in (1, 2):
            rin, rout = (1500.0, 1600.0) if direction == 1 else (1600.0, 1500.0)
            mine = verify.curve2_forward(rin, rout, 3.0, 0.999, d)
            ref = float(oracle.reference_forward(mk, d, direction))
            assert abs(mine - ref) <= 1e-9 * rout


def test_aggregate_value_and_forward_match_segments():
    agg = generate.make_ladder(50, seed=4)
    seg = verify.table_from_markets(2, [agg]).agg[0][1]
    nu = np.array([1.3, 1.0])
    naive = oracle.naive_aggregate_arb(agg, nu)
    mine = verify.bounded_arb_value(seg["r1"], seg["r2"], seg["alpha"], seg["beta"], seg["fee"],
                                    np.full(50, 1.3), np.full(50, 1.0)).sum()
    assert mine == pytest.approx(naive.objective_value, rel=1e-12)
    # the verifier's best-execution bound is the output the aggregate pays
    d = 0.3 * float(seg["r1"].sum())
    bound = verify.aggregate_forward(seg, d, 1)
    dx.swap(generate.make_ladder(50, seed=4), dx.Trade(np.array([d, 0.0]), np.array([0.0, bound * (1 - 1e-6)])))
    with pytest.raises(dx.errors.RejectedTradeError):
        dx.swap(generate.make_ladder(50, seed=4), dx.Trade(np.array([d, 0.0]), np.array([0.0, bound * (1 + 1e-4)])))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_json(name, tmp_path):
    a, b, c = (workloads.WORKLOADS[name](s, str(tmp_path)).setup() for s in (5, 5, 6))
    assert a == b
    assert a != c
    for text in a:
        json.loads(text)


def test_benchmark_json_names_what_the_runs_report():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_UNITS
