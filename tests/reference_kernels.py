"""The two batch kernels as they stood before they were rewritten to compute
in place and to solve both bounded directions in one pass, frozen with the
helpers they call.  `test_kernels.py` checks the library's kernels against
them bit for bit, on the same host and the same arrays: numpy's SIMD `power`
can differ by host in the last bit, so a pinned hash of their rows could not
be checked on every host.  Kept as they were, not to be edited."""

import numpy as np


def _curvature(two, q, nu_in, nu_out):
    """d(received1 - tendered1)/dnu1 from q = d(delta)/dlog(nu_out/nu_in),
    where `two` for the direction that tenders asset 2."""
    return np.where(two, q * nu_in / (nu_out * nu_out), q / nu_in)


def gmean_quote(r1, r2, w1, w2, fee):
    """(bid, ask) of asset 1 in asset 2; between them the market trades nothing."""
    eta1 = w1 / w2
    return fee * eta1 * r2 / r1, eta1 * r2 / (fee * r1)


def gmean_mirror(two, r1, r2, w1, w2):
    """(reserve in, reserve out, eta) of tendering asset 2 where `two`, else asset 1."""
    return np.where(two, r2, r1), np.where(two, r1, r2), np.where(two, w2 / w1, w1 / w2)


def gmean_out(rin, rout, eta, fee, d):
    """The output for tendering d in the direction (rin, rout, eta)."""
    return rout * (1.0 - (1.0 + fee * d / rin) ** (-eta))


def gmean_arb_batch(r1, r2, w1, w2, fee, nu1, nu2, quote=None):
    bid, ask = gmean_quote(r1, r2, w1, w2, fee) if quote is None else quote
    p = nu1 / nu2
    # both directions in one pass: a row above the ask (`two`) tenders asset
    # 2, any other asset 1, so each row takes (reserve in, reserve out, eta,
    # price in, price out) of that direction; a row inside the spread is
    # worked out for direction 1 and not kept
    two = p > ask
    rin, rout, eta = gmean_mirror(two, r1, r2, w1, w2)
    nu_in, nu_out = np.where(two, nu2, nu1), np.where(two, nu1, nu2)
    ratio = eta * fee * nu_out * rout / (nu_in * rin)
    d = np.maximum(rin / fee * (ratio ** (1.0 / (eta + 1.0)) - 1.0), 0.0)
    lam = gmean_out(rin, rout, eta, fee, d)
    val = nu_out * lam - nu_in * d
    q = (rin + fee * d) / ((eta + 1.0) * fee)
    h = _curvature(two, q, nu_in, nu_out)
    keep = ((p < bid) | two) & (val > 0.0)
    one, two = keep & ~two, keep & two
    # a fee-free pool exactly at its spot trades nothing, but its curvatures
    # from both sides agree there, with direction 1's worked out for the row
    spot = (p == bid) & (p == ask)
    return np.stack([np.where(one, d, 0.0), np.where(one, lam, 0.0), np.where(two, d, 0.0),
                     np.where(two, lam, 0.0), np.where(keep, val, 0.0), np.where(keep | spot, h, 0.0)])


def bounded_quote(r1, r2, alpha, beta, fee):
    """(lo, hi, d1max, d2max, bid, ask) of asset 1 in asset 2: at or below lo
    and the bid it tenders d1max for all its asset 2, at or above hi and the
    ask d2max for all its asset 1, else it quotes like `gmean_quote`."""
    v1 = r1 + alpha
    v2 = r2 + beta
    k = v1 * v2
    with np.errstate(divide="ignore", over="ignore"):
        lo = np.where(beta == 0.0, 0.0, fee * beta * beta / k)
        hi = np.where(alpha == 0.0, np.inf, k / (fee * alpha * alpha))
        d1max = np.where(r2 == 0.0, 0.0, np.where(beta == 0.0, np.inf, r2 * v1 / (fee * beta)))
        d2max = np.where(r1 == 0.0, 0.0, np.where(alpha == 0.0, np.inf, r1 * v2 / (fee * alpha)))
        bid = np.where(r2 == 0.0, 0.0, fee * v2 / v1)
        ask = np.where(r1 == 0.0, np.inf, v2 / (fee * v1))
    return lo, hi, d1max, d2max, bid, ask


def bounded_out(vin, vout, rout, fee, d):
    """The output for tendering d on virtual reserves (vin, vout), at most the reserve out."""
    return np.minimum(rout, fee * d * vout / (vin + fee * d))


def bounded_arb_batch(r1, r2, alpha, beta, fee, nu1, nu2, quote=None):
    lo, hi, d1max, d2max, bid, ask = bounded_quote(r1, r2, alpha, beta, fee) if quote is None else quote
    v1, v2 = r1 + alpha, r2 + beta
    p = nu1 / nu2
    out = np.zeros((6, r1.shape[0]))
    # full liquidity strictly outside the quotes, whose bid or ask may round onto lo or hi
    full1 = (p <= lo) & (p < bid)
    full2 = (~full1) & (p >= hi) & (p > ask)
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
            vin, vout, rout, nu_in, nu_out, f = (x[mask] for x in (*cols, fee))
            d = np.maximum((np.sqrt(f * (vin * vout) * nu_out / nu_in) - vin) / f, 0.0)
            lam = bounded_out(vin, vout, rout, f, d)
            keep = nu_out * lam - nu_in * d > 0.0
            h = _curvature(t == 2, (vin + f * d) / (2.0 * f), nu_in, nu_out)
            for row, x in zip((t, o, 5), (d, lam, h)):
                out[row][mask] = np.where(keep, x, 0.0)

    # a fee-free segment exactly at its spot trades nothing, but its
    # curvatures from both sides agree there: direction 1's at d = 0
    spot = (p == bid) & (p == ask)
    out[5][spot] = v1[spot] / (2.0 * nu1[spot])
    out[4] = np.maximum(nu1 * (out[3] - out[0]) + nu2 * (out[1] - out[2]), 0.0)
    return out
