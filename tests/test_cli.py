"""CLI behavior: generation determinism, routing output, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import dexroute as dx
from dexroute import cli, generate
from dexroute.errors import ConfigurationError
from dexroute.solver import RoutingSolution


def run(argv):
    return cli.main(argv)


class TestGen:
    def test_same_seed_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["gen", "--m", "12", "--seed", "5", "--out", str(p1)]) == 0
        assert run(["gen", "--m", "12", "--seed", "5", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["gen", "--m", "12", "--seed", "5", "--out", str(p1)])
        run(["gen", "--m", "12", "--seed", "6", "--out", str(p2)])
        assert p1.read_bytes() != p2.read_bytes()

    def test_universe_and_reserve_ranges(self, tmp_path):
        p = tmp_path / "s.json"
        run(["gen", "--m", "4", "--seed", "0", "--out", str(p)])
        doc = json.loads(p.read_text())
        assert len(doc["assets"]) == 4  # ceil(2*sqrt(4))
        assert len(doc["markets"]) == 4
        for mdoc in doc["markets"]:
            assert all(1000.0 <= r <= 2000.0 for r in mdoc["reserves"])
            assert mdoc["fee"] == 0.997
        assert "generator" in doc
        assert len(doc["prices"]) == 4

    def test_writes_the_indented_dumps_of_the_snapshot(self, tmp_path, capsys):
        expected = json.dumps(dx.snapshot_to_dict(generate.generate_snapshot(50, 3)), indent=2) + "\n"
        assert run(["gen", "--m", "50", "--seed", "3"]) == 0
        assert capsys.readouterr().out == expected
        path = tmp_path / "s.json"
        assert run(["gen", "--m", "50", "--seed", "3", "--out", str(path)]) == 0
        assert path.read_text() == expected

    def test_snapshot_loads_back(self, tmp_path):
        p = tmp_path / "s.json"
        run(["gen", "--m", "6", "--seed", "1", "--out", str(p)])
        snap = dx.load_snapshot(p)
        assert snap.m == 6


def test_import_leaves_scipy_linalg_unloaded(tmp_path):
    """Importing the command line loads the solver but no `scipy` module, and
    a one-shot `dexroute route` solves with numpy alone: at its end no `scipy`
    module is loaded either, nor `numpy.random`, which only `gen` needs."""
    snap, out = tmp_path / "snap.json", tmp_path / "sol.json"
    assert run(["gen", "--m", "64", "--seed", "3", "--out", str(snap)]) == 0
    src = os.path.dirname(os.path.dirname(dx.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); from dexroute import cli; "
            "print(sorted(sys.modules)); "
            f"code = cli.main(['route', '--snapshot', {str(snap)!r}, '--objective', 'arbitrage', "
            f"'--out', {str(out)!r}]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    imported, routed = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                      check=True).stdout.splitlines()
    assert "'dexroute.solver'" in imported and "'scipy" not in imported
    assert routed.split() == ["0", "[]", "[]"]
    doc = json.loads(out.read_text())
    assert doc["converged"] is True and doc["iterations"] > 0


class TestRoute:
    @pytest.fixture
    def snapshot_path(self, tmp_path):
        p = tmp_path / "snap.json"
        run(["gen", "--m", "8", "--seed", "2", "--out", str(p)])
        return p

    def test_arbitrage_route_writes_solution(self, snapshot_path, tmp_path):
        out = tmp_path / "sol.json"
        code = run([
            "route", "--snapshot", str(snapshot_path),
            "--objective", "arbitrage", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        for key in ("nu", "psi", "trades", "utility", "dual_value",
                    "iterations", "converged", "wall_time_ms"):
            assert key in doc
        assert doc["converged"] is True
        assert doc["utility"] >= 0.0
        assert len(doc["trades"]) == 8
        # psi consistent with the trade list
        snap = dx.load_snapshot(snapshot_path)
        psi = np.zeros(snap.n)
        for mkt, tdoc in zip(snap.markets, doc["trades"]):
            signed = np.array(tdoc["received"]) - np.array(tdoc["tendered"])
            psi += dx.scatter(mkt.token_map, signed, snap.n)
        assert np.allclose(psi, doc["psi"], atol=1e-9)

    def test_explicit_prices_override_snapshot(self, snapshot_path, tmp_path):
        out = tmp_path / "sol.json"
        snap = dx.load_snapshot(snapshot_path)
        prices = ",".join("1.0" for _ in range(snap.n))
        code = run([
            "route", "--snapshot", str(snapshot_path), "--objective", "arbitrage",
            "--prices", prices, "--out", str(out),
        ])
        assert code == 0

    def test_liquidation_route(self, snapshot_path, tmp_path):
        out = tmp_path / "sol.json"
        snap = dx.load_snapshot(snapshot_path)
        basket = ["0.0"] * snap.n
        basket[0] = "100.0"
        code = run([
            "route", "--snapshot", str(snapshot_path), "--objective", "liquidate",
            "--basket", ",".join(basket), "--out-token", "1", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["utility"] > 0.0

    def test_missing_snapshot_exits_1(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["route", "--snapshot", str(tmp_path / "nope.json"),
                 "--objective", "arbitrage"])
        assert exc.value.code == 1

    def test_malformed_snapshot_exits_1(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            run(["route", "--snapshot", str(p), "--objective", "arbitrage"])
        assert exc.value.code == 1

    def test_liquidate_without_basket_exits_1(self, snapshot_path):
        with pytest.raises(SystemExit) as exc:
            run(["route", "--snapshot", str(snapshot_path), "--objective", "liquidate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("flags", [
        ["--objective", "arbitrage", "--prices", "1,1"],
        ["--objective", "liquidate", "--basket", "100,0", "--out-token", "1"],
    ])
    def test_wrong_length_vector_exits_1(self, snapshot_path, flags, capsys):
        assert dx.load_snapshot(snapshot_path).n == 6
        with pytest.raises(SystemExit) as exc:
            run(["route", "--snapshot", str(snapshot_path), *flags])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["gen", "--m", "0", "--seed", "1"],
        ["gen", "--m", "4", "--seed", "1", "--fee", "1.5"],
        ["gen", "--m", "4", "--seed", "-1"],
        ["gen", "--m", "4", "--seed", "1", "--out", "{missing}"],
        ["route", "--snapshot", "{snap}", "--objective", "arbitrage", "--out", "{missing}"],
        ["route", "--snapshot", "{snap}", "--objective", "arbitrage", "--prices", "1,nan,1,1,1,1"],
        ["route", "--snapshot", "{snap}", "--objective", "arbitrage", "--prices", "1,inf,1,1,1,1"],
        ["route", "--snapshot", "{snap}", "--objective", "liquidate",
         "--basket", "0,inf,1,0,0,0", "--out-token", "0"],
        ["route", "--snapshot", "{snap}", "--objective", "arbitrage", "--tol", "nan"],
        ["route", "--snapshot", "{snap}", "--objective", "arbitrage", "--tol", "inf"],
        ["route", "--snapshot", "{snap}", "--objective", "arbitrage", "--tol", "0"],
        ["route", "--snapshot", "{unpriced}", "--objective", "arbitrage"],
    ], ids=["gen-m-0", "gen-fee-above-1", "gen-negative-seed", "gen-out-missing-dir",
            "route-out-missing-dir", "route-nan-price", "route-inf-price", "route-inf-basket",
            "route-nan-tol", "route-inf-tol", "route-zero-tol", "route-arbitrage-without-prices"])
    def test_bad_input_prints_one_error_line(self, snapshot_path, tmp_path, argv, capsys):
        missing = tmp_path / "no-such-dir" / "x.json"
        unpriced = tmp_path / "unpriced.json"
        doc = json.loads(snapshot_path.read_text())
        del doc["prices"]
        unpriced.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            run([a.format(snap=snapshot_path, missing=missing, unpriced=unpriced) for a in argv])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_nonconvergence_exits_2_with_output(self, snapshot_path, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = run([
            "route", "--snapshot", str(snapshot_path), "--objective", "arbitrage",
            "--max-iter", "1", "--tol", "1e-300", "--out", str(out),
        ])
        assert code == 2
        doc = json.loads(out.read_text())  # partial result still written
        assert doc["converged"] is False
        snap = dx.load_snapshot(snapshot_path)
        sol = dx.solve(snap, dx.TotalArbitrage(snap.prices),
                       dx.SolverConfig(max_iterations=1, gradient_tolerance=1e-300))
        assert sol.iterations == doc["iterations"] == 1 and sol.coupling_residual > 0.0
        assert capsys.readouterr().err == (
            f"warning: not converged after 1 rounds, projected residual {sol.coupling_residual:.3g}\n")


def _one_market_snapshot(market: dict) -> dict:
    return {"assets": ["A", "B"], "prices": [1.0, 1.0], "markets": [market]}


_GMEAN = {"type": "gmean", "tokens": [0, 1], "reserves": [100.0, 120.0],
          "weights": [0.5, 0.5], "fee": 0.997}
_BOUNDED = {"type": "bounded_product", "tokens": [0, 1], "reserves": [10.0, 10.0],
            "alpha": 90.0, "beta": 90.0, "fee": 1.0}
_CURVE2 = {"type": "curve2", "tokens": [0, 1], "reserves": [50.0, 60.0], "amp": 3.0, "fee": 0.999}


class TestMalformedMarkets:
    @pytest.mark.parametrize("market", [
        {**_GMEAN, "reserves": [100.0, 120.0, 80.0]},
        {**_GMEAN, "reserves": [100.0]},
        {**_GMEAN, "reserves": [100.0, math.inf]},
        {**_CURVE2, "reserves": [50.0, 60.0, 70.0]},
        {**_CURVE2, "amp": math.inf},
        {**_BOUNDED, "reserves": [10.0, math.nan]},
        {**_BOUNDED, "alpha": math.nan},
        {**_BOUNDED, "alpha": math.inf},
        {**_BOUNDED, "beta": math.inf},
        {"type": "aggregate", "tokens": [0, 1], "fee": 1.0,
         "segments": [{"reserves": [5.0, 0.0], "alpha": 10.0, "beta": math.nan}]},
        {**_GMEAN, "tokens": [0, 1.5]},
        1,
        {**_GMEAN, "tokens": 5},
        {**_GMEAN, "weights": 0.5},
    ], ids=["gmean-3-reserves", "gmean-1-reserve", "gmean-inf-reserve", "curve2-3-reserves",
            "curve2-inf-amp", "bounded-nan-reserve", "bounded-nan-alpha", "bounded-inf-alpha",
            "bounded-inf-beta", "segment-nan-beta", "fractional-token", "market-not-object",
            "tokens-not-list", "weights-not-list"])
    def test_rejected_with_one_error_line(self, market, tmp_path, capsys):
        doc = _one_market_snapshot(market)
        with pytest.raises(ConfigurationError):
            dx.snapshot_from_dict(doc)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            run(["route", "--snapshot", str(p), "--objective", "arbitrage"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


    def test_constructor_error_names_the_market(self, tmp_path, capsys):
        doc = {"assets": ["A", "B"], "prices": [1.0, 1.0],
               "markets": [_GMEAN, {**_GMEAN, "fee": 1.5}]}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            run(["route", "--snapshot", str(p), "--objective", "arbitrage"])
        assert exc.value.code == 1
        assert capsys.readouterr().err == "error: market 1: fee must be in (0, 1]: 1.5\n"


def _solution(tendered, received, nu, utility) -> RoutingSolution:
    nu = np.array(nu, dtype=float)
    return RoutingSolution(nu, dx.NetworkTrade(-nu), np.array(tendered, dtype=float).reshape(-1, 2),
                           np.array(received, dtype=float).reshape(-1, 2), 0.5, utility, 0.0, 3,
                           0.25, True)


_NONFINITE = [math.nan, math.inf, -math.inf, -0.0]


def _many_rows(m=1200, seed=0) -> RoutingSolution:
    """m trades: idle rows, and rows that tender asset 1 or asset 2, with
    -0.0 among the zeros and amounts at 5e-324, 1e16, 1e-7 and where repr
    switches to exponent form (below 1e-4 and from 1e16 on)."""
    r = np.random.default_rng(seed)
    special = [5e-324, 1e16, 1e-7, 1e-4, 9.999999999999999e-05, 9999999999999998.0, 1e-5, 2.5]
    amounts = np.where(r.random((m, 2)) < 0.5, r.choice(special, (m, 2)),
                       10.0 ** r.uniform(-9.0, 17.0, (m, 2)))
    tendered, received = np.zeros((m, 2)), np.zeros((m, 2))
    side = r.integers(3, size=m)  # 0: idle; 1, 2: tenders that asset
    for i in range(m):
        if side[i]:
            a = side[i] - 1
            tendered[i, a], received[i, 1 - a] = amounts[i]
    for a in (tendered, received):
        a[(a == 0.0) & (r.random((m, 2)) < 0.1)] = -0.0
    return _solution(tendered, received, [0.5, 1.5, 2.0], 12.5)


class TestSolutionWriter:
    @pytest.mark.parametrize("sol", [
        _solution([], [], [1.0, 2.0], 0.0),
        _solution([[1.5, 0.0]], [[0.0, 2.25]], [0.3, 0.7], 1.0),
        _solution([[0.0, 0.0]], [[0.0, 0.0]], [1.0, 1.0], -math.inf),
        _solution([_NONFINITE[:2], _NONFINITE[2:], [1e-300, 5e300]],
                  [_NONFINITE[2:], _NONFINITE[:2], [0.1, 3.0]], _NONFINITE, math.nan),
        _many_rows(),
    ], ids=["m0", "m1", "utility-neg-inf", "non-finite", "many-rows"])
    def test_hand_built_matches_indented_dumps(self, sol):
        assert cli._solution_json(sol) == json.dumps(cli._solution_doc(sol), indent=2) + "\n"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_solve_matches_indented_dumps(self, seed):
        snap = generate.generate_snapshot(64, seed)
        sol = dx.solve(snap, dx.TotalArbitrage(snap.prices))
        assert cli._solution_json(sol) == json.dumps(cli._solution_doc(sol), indent=2) + "\n"
