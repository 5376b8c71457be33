"""Batched arbitrage kernels for the solver's hot loop.

The dual evaluation calls the per-market arbitrage solve for every market at
every iteration; for the two closed-form market types the solve is batched
over struct-of-arrays market data with vectorized numpy.  The markets' scalar
`find_arb` methods call these kernels too, so each closed form is written once.

All kernels return one (6, m) array with the rows (tendered1, received2,
tendered2, received1, objective, curvature): direction 1 tenders asset 1 and
receives asset 2, and the curvature is d(received1 - tendered1)/dnu1, the
(1, 1) entry of the market's Hessian block.  It is 0 where nothing trades or
the trade is full liquidity.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def _curvature(t, q, nu_in, nu_out):
    """d(received1 - tendered1)/dnu1 from q = d(delta)/dlog(nu_out/nu_in),
    for the direction whose tendered row is t."""
    return q / nu_in if t == 0 else q * nu_in / (nu_out * nu_out)


# ---------------------------------------------------------------------------
# Geometric mean markets
# ---------------------------------------------------------------------------

def gmean_arb_batch(r1, r2, w1, w2, fee, nu1, nu2):
    eta1 = w1 / w2
    p = nu1 / nu2
    out = np.zeros((6, r1.shape[0]))
    # per direction: the tendered and received rows, where it pays, and
    # (reserve in, reserve out, eta, fee, price in, price out)
    for t, o, mask, *cols in (
        (0, 1, p < fee * eta1 * r2 / r1, r1, r2, eta1, fee, nu1, nu2),
        (2, 3, p > eta1 * r2 / (fee * r1), r2, r1, w2 / w1, fee, nu2, nu1),
    ):
        if mask.any():
            rin, rout, eta, f, nu_in, nu_out = (x[mask] for x in cols)
            ratio = eta * f * nu_out * rout / (nu_in * rin)
            d = np.maximum(rin / f * (ratio ** (1.0 / (eta + 1.0)) - 1.0), 0.0)
            lam = rout * (1.0 - (1.0 + f * d / rin) ** (-eta))
            val = nu_out * lam - nu_in * d
            h = _curvature(t, (rin + f * d) / ((eta + 1.0) * f), nu_in, nu_out)
            for row, x in zip((t, o, 4, 5), (d, lam, val, h)):
                out[row][mask] = np.where(val > 0.0, x, 0.0)
    return out


# ---------------------------------------------------------------------------
# Bounded-liquidity product segments
# ---------------------------------------------------------------------------

def bounded_arb_batch(r1, r2, alpha, beta, fee, nu1, nu2):
    v1 = r1 + alpha
    v2 = r2 + beta
    k = v1 * v2
    p = nu1 / nu2
    with np.errstate(divide="ignore", over="ignore"):
        lo = np.where(beta == 0.0, 0.0, fee * beta * beta / k)
        hi = np.where(alpha == 0.0, np.inf, k / (fee * alpha * alpha))
        d1max = np.where(r2 == 0.0, 0.0, np.where(beta == 0.0, np.inf, r2 * v1 / (fee * beta)))
        d2max = np.where(r1 == 0.0, 0.0, np.where(alpha == 0.0, np.inf, r1 * v2 / (fee * alpha)))
        bid = np.where(r2 == 0.0, 0.0, fee * v2 / v1)
        ask = np.where(r1 == 0.0, np.inf, v2 / (fee * v1))

    out = np.zeros((6, r1.shape[0]))
    full1 = p <= lo
    full2 = (~full1) & (p >= hi)
    inner = ~(full1 | full2)
    # per direction: the tendered and received rows, the full-liquidity and
    # interior masks, the input cap and (virtual reserve in, virtual reserve
    # out, reserve out, price in, price out)
    for t, o, full, mask, dmax, *cols in (
        (0, 1, full1, inner & (p < bid), d1max, v1, v2, r2, nu1, nu2),
        (2, 3, full2, inner & (p > ask), d2max, v2, v1, r1, nu2, nu1),
    ):
        out[t][full] = dmax[full]
        out[o][full] = cols[2][full]
        if mask.any():
            vin, vout, rout, nu_in, nu_out, f, kk = (x[mask] for x in (*cols, fee, k))
            d = np.maximum((np.sqrt(f * kk * nu_out / nu_in) - vin) / f, 0.0)
            lam = np.minimum(rout, f * d * vout / (vin + f * d))
            keep = nu_out * lam - nu_in * d > 0.0
            h = _curvature(t, (vin + f * d) / (2.0 * f), nu_in, nu_out)
            for row, x in zip((t, o, 5), (d, lam, h)):
                out[row][mask] = np.where(keep, x, 0.0)

    out[4] = np.maximum(nu1 * (out[3] - out[0]) + nu2 * (out[1] - out[2]), 0.0)
    return out
