"""The batched kernels: a row of a batch equals a batch of one (the markets'
scalar `find_arb` calls the kernel on length-1 arrays), and the curvature row
is the derivative in nu1 of the kernel's own received1 - tendered1."""

import numpy as np
import pytest

import dexroute as dx
from dexroute import generate, kernels

import reference_kernels


def _random_gmean_batch(rng, m):
    return dict(
        r1=rng.uniform(10.0, 1e4, m),
        r2=rng.uniform(10.0, 1e4, m),
        w1=rng.choice([0.5, 0.8], m),
        fee=rng.choice([1.0, 0.997], m),
        nu1=rng.uniform(0.05, 20.0, m),
        nu2=rng.uniform(0.05, 20.0, m),
    )


def _random_bounded_batch(rng, m):
    return dict(
        r1=rng.uniform(0.0, 1e3, m),
        r2=rng.uniform(0.0, 1e3, m),
        alpha=rng.uniform(0.0, 500.0, m) * (rng.random(m) > 0.1),
        beta=rng.uniform(0.0, 500.0, m) * (rng.random(m) > 0.1),
        fee=rng.choice([1.0, 0.997], m),
        nu1=rng.uniform(0.01, 100.0, m),
        nu2=rng.uniform(0.01, 100.0, m),
    )


class TestAgainstScalarPath:
    def test_gmean_batch_matches_find_arb(self):
        rng = np.random.default_rng(1)
        b = _random_gmean_batch(rng, 300)
        rows = kernels.gmean_arb_batch(
            b["r1"], b["r2"], b["w1"], 1.0 - b["w1"], b["fee"], b["nu1"], b["nu2"]
        )
        for i in range(300):
            m = dx.GeomMeanMarket(
                np.array([b["r1"][i], b["r2"][i]]),
                (b["w1"][i], 1.0 - b["w1"][i]),
                b["fee"][i],
                dx.TokenMap((0, 1)),
            )
            res = m.find_arb(np.array([b["nu1"][i], b["nu2"][i]]))
            assert rows[:, i].tolist() == pytest.approx(list(res), rel=1e-12, abs=1e-12)

    def test_bounded_batch_matches_find_arb(self):
        rng = np.random.default_rng(2)
        b = _random_bounded_batch(rng, 300)
        keep = (b["r1"] + b["alpha"] > 1e-9) & (b["r2"] + b["beta"] > 1e-9)
        for key in b:
            b[key] = b[key][keep]
        rows = kernels.bounded_arb_batch(
            b["r1"], b["r2"], b["alpha"], b["beta"], b["fee"], b["nu1"], b["nu2"]
        )
        for i in range(len(b["r1"])):
            m = dx.BoundedProductSegment(
                np.array([b["r1"][i], b["r2"][i]]),
                b["alpha"][i],
                b["beta"][i],
                b["fee"][i],
                dx.TokenMap((0, 1)),
            )
            res = m.find_arb(np.array([b["nu1"][i], b["nu2"][i]]))
            assert rows[:, i].tolist() == pytest.approx(list(res), rel=1e-12, abs=1e-12)


def _gmean_case(b, nu1):
    """The gmean kernel's rows at (nu1, nu2), and the batch's spot prices."""
    rows = kernels.gmean_arb_batch(b["r1"], b["r2"], b["w1"], 1.0 - b["w1"], b["fee"],
                                   nu1, b["nu2"])
    return rows, b["w1"] / (1.0 - b["w1"]) * b["r2"] / b["r1"]


def _bounded_case(b, nu1):
    rows = kernels.bounded_arb_batch(b["r1"], b["r2"], b["alpha"], b["beta"], b["fee"],
                                     nu1, b["nu2"])
    return rows, (b["r2"] + b["beta"]) / (b["r1"] + b["alpha"])


class TestCurvatureRow:
    @pytest.mark.parametrize("batch, case", [(_random_gmean_batch, _gmean_case),
                                             (_random_bounded_batch, _bounded_case)])
    def test_matches_central_difference_of_the_kernel(self, batch, case):
        b = batch(np.random.default_rng(3), 2000)
        nu1 = b["nu1"]
        nu1[:500] = (b["nu2"] * case(b, nu1)[1])[:500]  # at the spot price nothing trades
        (t1, _, t2, _, _, curv), spot = case(b, nu1)
        idle = (t1 == 0.0) & (t2 == 0.0)
        assert idle.sum() > 400
        # of the rows that trade nothing only a fee-free pool or segment
        # exactly at its spot has a curvature, the same from both sides
        flat = (b["fee"] == 1.0) & (nu1 / b["nu2"] == spot)
        assert flat[idle].sum() > 50
        assert np.array_equal(curv[idle] != 0.0, flat[idle])
        h = 1e-6 * nu1
        plus, minus = case(b, nu1 + h)[0], case(b, nu1 - h)[0]
        fd = ((plus[3] - plus[0]) - (minus[3] - minus[0])) / (2.0 * h)
        # interior on both sides of nu1, and in one direction
        interior = (plus[5] > 0.0) & (minus[5] > 0.0) & ((plus[0] > 0.0) == (minus[0] > 0.0))
        assert interior.sum() > 1000
        np.testing.assert_allclose(curv[interior], fd[interior], rtol=1e-6)

    def test_a_fee_free_gmean_pool_at_its_spot_keeps_its_curvature(self):
        """Nothing trades there, but the one-sided curvatures from both
        directions are equal, r1/((eta1 + 1) nu1), and so is the central
        difference of the kernel's received1 - tendered1."""
        b = _random_gmean_batch(np.random.default_rng(4), 200)
        b["fee"], b["nu2"] = np.ones(200), np.ones(200)
        nu1 = _gmean_case(b, b["nu1"])[1]  # p = nu1 / 1 is the spot bit for bit
        (t1, _, t2, _, _, curv), _ = _gmean_case(b, nu1)
        assert not (t1.any() or t2.any())
        eta1 = b["w1"] / (1.0 - b["w1"])
        np.testing.assert_allclose(curv, b["r1"] / ((eta1 + 1.0) * nu1), rtol=1e-12)
        h = 1e-6 * nu1
        plus, minus = _gmean_case(b, nu1 + h)[0], _gmean_case(b, nu1 - h)[0]
        assert (plus[2] > 0.0).all() and (minus[0] > 0.0).all()  # one step into each direction
        fd = ((plus[3] - plus[0]) - (minus[3] - minus[0])) / (2.0 * h)
        np.testing.assert_allclose(curv, fd, rtol=1e-5)

    def test_a_fee_free_bounded_segment_at_its_spot_keeps_its_curvature(self):
        """As for gmean: both one-sided curvatures are (r1 + alpha)/(2 nu1),
        500/2.8 = 178.57... at r = (400, 500), alpha = 100, beta = 200."""
        b = {k: np.array([v]) for k, v in
             dict(r1=400.0, r2=500.0, alpha=100.0, beta=200.0, fee=1.0, nu2=1.0).items()}
        nu1 = np.array([1.4])  # the spot (r2 + beta)/(r1 + alpha), bit for bit
        (t1, _, t2, _, value, curv), spot = _bounded_case(b, nu1)
        assert nu1[0] == spot[0] and t1[0] == t2[0] == value[0] == 0.0
        assert curv[0] == pytest.approx(500.0 / 2.8, rel=1e-12)
        h = 1e-6 * nu1
        plus, minus = _bounded_case(b, nu1 + h)[0], _bounded_case(b, nu1 - h)[0]
        assert plus[2, 0] > 0.0 and minus[0, 0] > 0.0  # one step into each direction
        fd = ((plus[3] - plus[0]) - (minus[3] - minus[0])) / (2.0 * h)
        assert curv[0] == pytest.approx(fd[0], rel=1e-5)


def _mixed_batches(rng, m):
    """A gmean and a bounded batch, each as (kernel, argument columns, nu1,
    nu2), whose rows trade at a random price, sit at the spot price, take full
    liquidity, hold a zero reserve and quote a bid of 0 or an ask of inf."""
    w1 = rng.choice([0.5, 0.8, 0.2], m)
    gmean = (rng.uniform(10.0, 1e4, m), rng.uniform(10.0, 1e4, m), w1, 1.0 - w1,
             rng.choice([1.0, 0.997], m))
    r1 = rng.uniform(0.0, 1e3, m) * (rng.random(m) > 0.2)
    r2 = rng.uniform(0.0, 1e3, m) * (rng.random(m) > 0.2)
    alpha = rng.uniform(1.0, 500.0, m) * (rng.random(m) > 0.1)
    beta = rng.uniform(1.0, 500.0, m) * (rng.random(m) > 0.1)
    keep = (r1 + alpha > 0.0) & (r2 + beta > 0.0)
    bounded = tuple(c[keep] for c in (r1, r2, alpha, beta, rng.choice([1.0, 0.997], m)))
    out = []
    for name, cols in (("gmean_arb_batch", gmean), ("bounded_arb_batch", bounded)):
        k = len(cols[0])
        quote = kernels.QUOTES[name](*cols)
        if name == "gmean_arb_batch":
            lo, hi = quote
            spot = np.sqrt(lo * hi)
        else:  # full liquidity past lo and hi, where they are finite and positive
            lo, hi = quote[:2]
            spot = (cols[1] + cols[3]) / (cols[0] + cols[2])
        price = np.choose(rng.integers(4, size=k), [
            spot * 10.0 ** rng.uniform(-2.0, 2.0, k), spot,
            np.where(lo > 0.0, 0.5 * lo, 1e-3 * spot), np.where(np.isfinite(hi), 2.0 * hi, 1e3 * spot)])
        nu2 = rng.uniform(0.1, 10.0, k)
        out.append((getattr(kernels, name), cols, price * nu2, nu2))
    return out


class TestRowsAreIndependent:
    def test_a_batch_row_is_bit_identical_to_a_batch_of_one(self):
        for kernel, cols, nu1, nu2 in _mixed_batches(np.random.default_rng(11), 400):
            rows = kernel(*cols, nu1, nu2)
            for i in range(len(nu1)):
                one = kernel(*(c[i:i + 1] for c in cols), nu1[i:i + 1], nu2[i:i + 1])
                assert one[:, 0].tobytes() == rows[:, i].tobytes(), (kernel.__name__, i)
            trading, t1, t2 = rows[4] > 0.0, rows[0], rows[2]
            assert 50 < trading.sum() < len(nu1) - 50
            assert (trading & (t1 > 0.0)).any() and (trading & (t2 > 0.0)).any()
            assert (rows[5][trading] == 0.0).any() == (kernel is kernels.bounded_arb_batch)
        r1, r2 = cols[:2]  # the bounded batch: empty sides, and full-liquidity trades
        assert (r1 == 0.0).sum() > 20 and (r2 == 0.0).sum() > 20
        assert ((rows[1] == r2) & (r2 > 0.0)).sum() > 20 and ((rows[3] == r1) & (r1 > 0.0)).sum() > 20

    def test_a_passed_quote_gives_the_rows_of_the_kernels_own(self):
        for kernel, cols, nu1, nu2 in _mixed_batches(np.random.default_rng(12), 2000):
            quote = kernels.QUOTES[kernel.__name__](*cols)
            assert kernel(*cols, nu1, nu2, quote).tobytes() == kernel(*cols, nu1, nu2).tobytes()


def _masked_gmean(r1, r2, w1, w2, fee, nu1, nu2):
    """The gmean kernel one direction at a time, on the rows that direction
    picks by boolean masks: the reference for its one-pass form."""
    bid, ask = kernels.gmean_quote(r1, r2, w1, w2, fee)
    p = nu1 / nu2
    out = np.zeros((6, r1.shape[0]))
    spot = (p == bid) & (p == ask)  # a fee-free pool at its spot: direction 1's curvature only
    for t, o, mask, *cols in ((0, 1, (p < bid) | spot, r1, r2, w1 / w2, fee, nu1, nu2),
                              (2, 3, p > ask, r2, r1, w2 / w1, fee, nu2, nu1)):
        rin, rout, eta, f, nu_in, nu_out = (x[mask] for x in cols)
        ratio = eta * f * nu_out * rout / (nu_in * rin)
        d = np.maximum(rin / f * (ratio ** (1.0 / (eta + 1.0)) - 1.0), 0.0)
        lam = rout * (1.0 - (1.0 + f * d / rin) ** (-eta))
        val = nu_out * lam - nu_in * d
        q = (rin + f * d) / ((eta + 1.0) * f)
        h = q / nu_in if t == 0 else q * nu_in / (nu_out * nu_out)
        trades = (val > 0.0) & ~spot[mask]
        for row, x in zip((t, o, 4, 5), (d, lam, val, h)):
            out[row][mask] = np.where(trades | (row == 5) & spot[mask], x, 0.0)
    return out


def test_the_gmean_kernel_equals_its_per_direction_masked_form():
    (_, cols, nu1, nu2), _ = _mixed_batches(np.random.default_rng(13), 20000)
    assert kernels.gmean_arb_batch(*cols, nu1, nu2).tobytes() == _masked_gmean(*cols, nu1, nu2).tobytes()


def test_a_solve_computes_each_block_quote_once(monkeypatch):
    # a quote reads no price, so a solve computes it once, not once per
    # evaluation; a kernel computing its own would call its module's function
    calls = {}

    def counting(fn):
        def counted(*args):
            calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            return fn(*args)
        return counted
    for name, fn in list(kernels.QUOTES.items()):
        monkeypatch.setitem(kernels.QUOTES, name, counting(fn))
        monkeypatch.setattr(kernels, fn.__name__, kernels.QUOTES[name])
    monkeypatch.setattr(kernels, "gmean_arb_batch", counting(kernels.gmean_arb_batch))
    tm = dx.TokenMap
    markets = [
        dx.GeomMeanMarket(np.array([1000.0, 1500.0]), (0.5, 0.5), 0.997, tm((0, 1))),
        dx.GeomMeanMarket(np.array([800.0, 700.0]), (0.8, 0.2), 0.997, tm((1, 2))),
        dx.BoundedProductSegment(np.array([10.0, 10.0]), 90.0, 90.0, 1.0, tm((1, 2))),
        dx.Curve2Market(np.array([100.0, 120.0]), 5.0, 0.999, tm((0, 2))),
        generate.make_ladder(10, seed=3, token_map=tm((0, 2))),
    ]
    snap = dx.MarketSnapshot(dx.AssetUniverse(("A", "B", "C")), markets)
    kernel_calls = []
    for obj in (dx.TotalArbitrage(np.array([1.0, 1.3, 0.9])),
                dx.BasketLiquidation(np.array([10.0, 5.0, 0.0]), 2)):
        calls.clear()
        sol = dx.solve(snap, obj)
        assert sol.converged
        kernel_calls.append(calls.pop("gmean_arb_batch"))
        assert calls == {"gmean_quote": 1, "bounded_quote": 1}
    # each evaluation of the dual calls the gmean kernel once; the arbitrage
    # starts at its optimum, the liquidation evaluates the dual again
    assert kernel_calls[0] >= 1 and kernel_calls[1] >= 2


def _branch_batch(name, rng, m):
    """Argument columns, nu1 and nu2 of a batch for the kernel `name`: each
    row's price lies below its bid, above its ask or inside its spread, or
    exactly on one of its quotes (nu2 = 1 and nu1 the quote: the bid or the
    ask, and a bounded segment's lo or hi), so that fee-free rows sit at
    their spot; a few prices are NaN.  A bounded batch's prices below the bid
    or above the ask fall both inside its range and past it, where it trades
    its full liquidity, and it holds empty reserves and rows with alpha or
    beta 0."""
    fee = rng.choice([1.0, 0.997], m)
    if name == "gmean_arb_batch":
        w1 = rng.choice([0.2, 0.5, 0.8], m)
        cols = (rng.uniform(10.0, 1e4, m), rng.uniform(10.0, 1e4, m), w1, 1.0 - w1, fee)
    else:
        r1, r2, alpha, beta = (rng.uniform(lo, 1e3, m) * (rng.random(m) > 0.1) for lo in (0.0, 0.0, 1.0, 1.0))
        keep = (r1 + alpha > 0.0) & (r2 + beta > 0.0)
        cols = tuple(c[keep] for c in (r1, r2, alpha, beta, fee))
        m = len(cols[0])
    quote = kernels.QUOTES[name](*cols)
    bid, ask = quote[-2:]
    u = rng.random(m)
    inside = np.where(np.isfinite(ask), bid + (ask - bid) * u, 2.0 * bid + 1.0)
    price = np.choose(rng.integers(3, size=m), [bid * 10.0 ** -rng.uniform(0.0, 3.0, m),
                                                ask * 10.0 ** rng.uniform(0.0, 3.0, m), inside])
    price = np.where((price > 0.0) & np.isfinite(price), price, inside)
    nu2 = rng.uniform(0.1, 10.0, m)
    nu1 = price * nu2
    edges = (*quote[:2], bid, ask) if name == "bounded_arb_batch" else (bid, ask)  # lo, hi, bid, ask
    on = np.choose(rng.integers(len(edges), size=m), edges)
    at = (rng.random(m) < 0.3) & (on > 0.0) & np.isfinite(on)
    nu1[at], nu2[at] = on[at], 1.0
    nu1[rng.random(m) < 0.02] = np.nan
    return cols, nu1, nu2


class TestAgainstTheReference:
    """Both kernels give, bit for bit, the rows of their form before they
    computed in place and solved both bounded directions in one pass
    (`reference_kernels.py`), on the same arrays: a whole batch with and
    without its quote, and batches of one to 16 rows, whose numpy loops can
    round otherwise (an in-place power of a one-row array does)."""

    @pytest.mark.parametrize("name", ["gmean_arb_batch", "bounded_arb_batch"])
    def test_bit_for_bit(self, name):
        kernel, reference = getattr(kernels, name), getattr(reference_kernels, name)
        cols, nu1, nu2 = _branch_batch(name, np.random.default_rng(21), 4000)
        rows = reference(*cols, nu1, nu2)
        # every branch is reached: each direction, idle rows, and a curvature
        # without a trade at a fee-free row's spot
        t1, o2, t2, o1, _, h = rows
        idle = (t1 == 0.0) & (t2 == 0.0)
        assert min((t1 > 0.0).sum(), (t2 > 0.0).sum(), idle.sum(), (idle & (h != 0.0)).sum()) > 50
        if name == "bounded_arb_batch":
            r1, r2, alpha, beta, _ = cols
            full1, full2 = (t1 > 0.0) & (o2 == r2), (t2 > 0.0) & (o1 == r1)
            assert min(full1.sum(), full2.sum(), ((t1 > 0.0) & ~full1).sum(), ((t2 > 0.0) & ~full2).sum()) > 50
            assert min(((alpha == 0.0) & ~idle).sum(), ((beta == 0.0) & ~idle).sum()) > 20
            assert min((r1 == 0.0).sum(), (r2 == 0.0).sum()) > 20
        quote = kernels.QUOTES[name](*cols)
        for passed in ((), (quote,)):
            assert np.array_equal(kernel(*cols, nu1, nu2, *passed).view(np.int64), rows.view(np.int64))
        for k in range(1, 17):
            for i in range(0, 400, k):
                part = slice(i, i + k)
                one = kernel(*(c[part] for c in cols), nu1[part], nu2[part], tuple(q[part] for q in quote))
                assert np.array_equal(one.view(np.int64), rows[:, part].view(np.int64)), (k, i)
