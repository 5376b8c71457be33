"""The batched kernels: a row of a batch equals a batch of one (the markets'
scalar `find_arb` calls the kernel on length-1 arrays), and the curvature row
is the derivative in nu1 of the kernel's own received1 - tendered1."""

import numpy as np
import pytest

import dexroute as dx
from dexroute import kernels


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
        t1, o2, t2, o1, obj, _ = kernels.gmean_arb_batch(
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
            assert t1[i] == pytest.approx(res.trade.tendered[0], rel=1e-12, abs=1e-12)
            assert t2[i] == pytest.approx(res.trade.tendered[1], rel=1e-12, abs=1e-12)
            assert o1[i] == pytest.approx(res.trade.received[0], rel=1e-12, abs=1e-12)
            assert o2[i] == pytest.approx(res.trade.received[1], rel=1e-12, abs=1e-12)
            assert obj[i] == pytest.approx(res.objective_value, rel=1e-12, abs=1e-12)

    def test_bounded_batch_matches_find_arb(self):
        rng = np.random.default_rng(2)
        b = _random_bounded_batch(rng, 300)
        keep = (b["r1"] + b["alpha"] > 1e-9) & (b["r2"] + b["beta"] > 1e-9)
        for key in b:
            b[key] = b[key][keep]
        t1, o2, t2, o1, obj, _ = kernels.bounded_arb_batch(
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
            assert t1[i] == pytest.approx(res.trade.tendered[0], rel=1e-12, abs=1e-12)
            assert t2[i] == pytest.approx(res.trade.tendered[1], rel=1e-12, abs=1e-12)
            assert o1[i] == pytest.approx(res.trade.received[0], rel=1e-12, abs=1e-12)
            assert o2[i] == pytest.approx(res.trade.received[1], rel=1e-12, abs=1e-12)


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
        (t1, _, t2, _, _, curv), _ = case(b, nu1)
        idle = (t1 == 0.0) & (t2 == 0.0)
        assert idle.sum() > 400
        assert np.all(curv[idle] == 0.0)
        h = 1e-6 * nu1
        plus, minus = case(b, nu1 + h)[0], case(b, nu1 - h)[0]
        fd = ((plus[3] - plus[0]) - (minus[3] - minus[0])) / (2.0 * h)
        # interior on both sides of nu1, and in one direction
        interior = (plus[5] > 0.0) & (minus[5] > 0.0) & ((plus[0] > 0.0) == (minus[0] > 0.0))
        assert interior.sum() > 1000
        np.testing.assert_allclose(curv[interior], fd[interior], rtol=1e-6)
