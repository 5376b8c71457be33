"""Batched arbitrage kernels for the solver's hot loop.

The dual evaluation calls the per-market arbitrage solve for every market at
every iteration; for the two closed-form market types the solve is batched
over struct-of-arrays market data with vectorized numpy.

All kernels return (tendered1, received2, tendered2, received1, objective)
arrays: direction 1 tenders asset 1 and receives asset 2.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


# ---------------------------------------------------------------------------
# Geometric mean markets
# ---------------------------------------------------------------------------

def gmean_arb_batch(r1, r2, w1, w2, fee, nu1, nu2):
    eta1 = w1 / w2
    eta2 = w2 / w1
    p = nu1 / nu2
    bid = fee * eta1 * r2 / r1
    ask = eta1 * r2 / (fee * r1)

    m = r1.shape[0]
    t1 = np.zeros(m)
    o2 = np.zeros(m)
    t2 = np.zeros(m)
    o1 = np.zeros(m)
    obj = np.zeros(m)

    d1mask = p < bid
    if d1mask.any():
        ratio = eta1[d1mask] * fee[d1mask] * nu2[d1mask] * r2[d1mask] / (nu1[d1mask] * r1[d1mask])
        d = r1[d1mask] / fee[d1mask] * (ratio ** (1.0 / (eta1[d1mask] + 1.0)) - 1.0)
        d = np.maximum(d, 0.0)
        lam = r2[d1mask] * (1.0 - (1.0 + fee[d1mask] * d / r1[d1mask]) ** (-eta1[d1mask]))
        val = nu2[d1mask] * lam - nu1[d1mask] * d
        keep = val > 0.0
        t1[d1mask] = np.where(keep, d, 0.0)
        o2[d1mask] = np.where(keep, lam, 0.0)
        obj[d1mask] = np.where(keep, val, 0.0)

    d2mask = p > ask
    if d2mask.any():
        ratio = eta2[d2mask] * fee[d2mask] * nu1[d2mask] * r1[d2mask] / (nu2[d2mask] * r2[d2mask])
        d = r2[d2mask] / fee[d2mask] * (ratio ** (1.0 / (eta2[d2mask] + 1.0)) - 1.0)
        d = np.maximum(d, 0.0)
        lam = r1[d2mask] * (1.0 - (1.0 + fee[d2mask] * d / r2[d2mask]) ** (-eta2[d2mask]))
        val = nu1[d2mask] * lam - nu2[d2mask] * d
        keep = val > 0.0
        t2[d2mask] = np.where(keep, d, 0.0)
        o1[d2mask] = np.where(keep, lam, 0.0)
        obj[d2mask] = np.where(keep, val, 0.0)

    return t1, o2, t2, o1, obj


# ---------------------------------------------------------------------------
# Bounded-liquidity product segments
# ---------------------------------------------------------------------------

def bounded_arb_batch(r1, r2, alpha, beta, fee, nu1, nu2):
    v1 = r1 + alpha
    v2 = r2 + beta
    k = v1 * v2
    p = nu1 / nu2
    with np.errstate(divide="ignore"):
        lo = np.where(beta == 0.0, 0.0, fee * beta * beta / k)
        hi = np.where(alpha == 0.0, np.inf, k / (fee * alpha * alpha))
        d1max = np.where(r2 == 0.0, 0.0, np.where(beta == 0.0, np.inf, r2 * v1 / (fee * beta)))
        d2max = np.where(r1 == 0.0, 0.0, np.where(alpha == 0.0, np.inf, r1 * v2 / (fee * alpha)))
        bid = np.where(r2 == 0.0, 0.0, fee * v2 / v1)
        ask = np.where(r1 == 0.0, np.inf, v2 / (fee * v1))

    m = r1.shape[0]
    t1 = np.zeros(m)
    o2 = np.zeros(m)
    t2 = np.zeros(m)
    o1 = np.zeros(m)

    full1 = p <= lo
    t1[full1] = d1max[full1]
    o2[full1] = r2[full1]

    full2 = (~full1) & (p >= hi)
    t2[full2] = d2max[full2]
    o1[full2] = r1[full2]

    int1 = (~full1) & (~full2) & (p < bid)
    if int1.any():
        d = (np.sqrt(fee[int1] * k[int1] * nu2[int1] / nu1[int1]) - v1[int1]) / fee[int1]
        d = np.maximum(d, 0.0)
        lam = np.minimum(r2[int1], fee[int1] * d * v2[int1] / (v1[int1] + fee[int1] * d))
        keep = nu2[int1] * lam - nu1[int1] * d > 0.0
        t1[int1] = np.where(keep, d, 0.0)
        o2[int1] = np.where(keep, lam, 0.0)

    int2 = (~full1) & (~full2) & (p > ask)
    if int2.any():
        d = (np.sqrt(fee[int2] * k[int2] * nu1[int2] / nu2[int2]) - v2[int2]) / fee[int2]
        d = np.maximum(d, 0.0)
        lam = np.minimum(r1[int2], fee[int2] * d * v1[int2] / (v2[int2] + fee[int2] * d))
        keep = nu1[int2] * lam - nu2[int2] * d > 0.0
        t2[int2] = np.where(keep, d, 0.0)
        o1[int2] = np.where(keep, lam, 0.0)

    obj = np.maximum(nu1 * (o1 - t1) + nu2 * (o2 - t2), 0.0)
    return t1, o2, t2, o1, obj
