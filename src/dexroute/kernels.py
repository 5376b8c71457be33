"""Batched arbitrage kernels for the solver's hot loop.

The dual evaluation calls the per-market arbitrage solve for every market at
every iteration; for the two closed-form market types the solve is batched
over struct-of-arrays market data with vectorized numpy.  Each closed form is
written once: the markets' scalar methods call the kernels (`find_arb`), the
quote functions the kernels decide with, and the formulas they share
(`gmean_out` after `gmean_mirror`, `bounded_out`), on Python floats, whose
power may differ from an array's in the last bit.

All kernels return one (6, m) array with the rows (tendered1, received2,
tendered2, received1, objective, curvature): direction 1 tenders asset 1 and
receives asset 2, and the curvature is d(received1 - tendered1)/dnu1, the
(1, 1) entry of the market's Hessian block.  It is 0 where nothing trades or
the trade is full liquidity, except at a fee-free gmean pool's or bounded
segment's spot, where the curvatures from both sides agree.

Each kernel takes, after the prices, an optional `quote`: the result of its
quote function (`QUOTES`) on the same columns.  The quote does not depend on
the prices, so a caller that evaluates one block at many prices computes it
once and passes it in; without it the kernel computes its own.

On the solver's blocks, a few hundred to 10**4 rows, a kernel costs its
number of numpy calls and temporaries more than its arithmetic.  So each
kernel works out every row in the direction it trades in one pass, on
columns mirrored by `np.where` (a row above its ask tenders asset 2): the
gmean kernel over the whole batch, the bounded kernel over the few rows
that trade inside their range, gathered by index, after it has copied in
its full-liquidity rows.  The gmean kernel computes in place where that
keeps each formula's order of operations.  Both fill their rows onto zeros
by mask with `np.putmask` (what `np.copyto(..., where=)` does, in a quarter
of its time at 10**4 rows), never by multiplying with a mask, which would
turn NaN and -x into other bits than 0.0.  Their rows are bit for bit those
of the earlier form that solved each direction on its own.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

BACKEND = "numpy"


def columns(parts) -> np.ndarray:
    """The arguments before the prices of the kernel that `parts` name, as a
    new C-contiguous (arguments, parts) array, one row per argument: one
    market, an aggregate's segments or a snapshot's block.  Parts that are
    consecutive columns of one block, as a snapshot's aggregate is, are read
    as one slice copy of it; any others from each part's `_row()`."""
    block, j = parts[0]._block, parts[0]._j
    if [p._j for p in parts if p._block is block] == list(range(j, j + len(parts))):
        return block[:, j:j + len(parts)].copy()
    flat = np.fromiter(chain.from_iterable(p._row() for p in parts), dtype=float)
    return flat.reshape(len(parts), -1).T.copy()


def _curvature(two, q, nu_in, nu_out):
    """d(received1 - tendered1)/dnu1 from q = d(delta)/dlog(nu_out/nu_in),
    where `two` for the direction that tenders asset 2."""
    return np.where(two, q * nu_in / (nu_out * nu_out), q / nu_in)


# ---------------------------------------------------------------------------
# Geometric mean markets
# ---------------------------------------------------------------------------

def gmean_quote(r1, r2, w1, w2, fee):
    """(bid, ask) of asset 1 in asset 2; between them the market trades nothing."""
    eta1 = w1 / w2
    return fee * eta1 * r2 / r1, eta1 * r2 / (fee * r1)


def gmean_mirror(two, r1, r2, w1, w2):
    """(reserve in, reserve out, eta) of tendering asset 2 where `two`, else asset 1."""
    return np.where(two, r2, r1), np.where(two, r1, r2), np.where(two, w2 / w1, w1 / w2)


def gmean_out(rin, rout, eta, fd):
    """The output for tendering d in the direction (rin, rout, eta), from fd = fee*d."""
    return rout * (1.0 - (1.0 + fd / rin) ** (-eta))


def _spot(p, bid, ask):
    """The rows whose price p is both their bid and their ask: a fee-free
    market exactly at its spot, which trades nothing but has a curvature."""
    s = np.flatnonzero(p == ask)
    return s[p[s] == bid[s]] if s.size else s


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
    e1 = eta + 1.0
    # d = max(rin/fee * (ratio**(1/(eta + 1)) - 1), 0) at the ratio
    # eta*fee*nu_out*rout/(nu_in*rin), in place in that order of operations,
    # but for the power: numpy's in-place power of a one-row array can differ
    # in the last bit from its power into a new array
    d = eta * fee
    d *= nu_out
    d *= rout
    d /= nu_in * rin
    d = d ** (1.0 / e1)
    d -= 1.0
    d *= rin / fee
    np.maximum(d, 0.0, out=d)
    fd = fee * d
    lam = gmean_out(rin, rout, eta, fd)
    val = nu_out * lam
    val -= nu_in * d
    fd += rin
    e1 *= fee
    fd /= e1  # q = (rin + fee*d)/((eta + 1)*fee)
    h = _curvature(two, fd, nu_in, nu_out)
    keep = (p < bid) | two
    keep &= val > 0.0
    two &= keep
    one = keep ^ two
    # onto zeros where each mask holds, never multiplied by a mask
    out = np.zeros((6, p.shape[0]))
    for row, mask, x in ((0, one, d), (1, one, lam), (2, two, d), (3, two, lam), (4, keep, val), (5, keep, h)):
        np.putmask(out[row], mask, x)
    # a fee-free pool exactly at its spot trades nothing, but its curvatures
    # from both sides agree there, with direction 1's worked out for the row
    s = _spot(p, bid, ask)
    if s.size:
        out[5, s] = h[s]
    return out


# ---------------------------------------------------------------------------
# Bounded-liquidity product segments
# ---------------------------------------------------------------------------

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


def bounded_out(vin, vout, rout, fd):
    """The output for tendering d on virtual reserves (vin, vout), at most
    the reserve out, from fd = fee*d."""
    return np.minimum(rout, fd * vout / (vin + fd))


def bounded_arb_batch(r1, r2, alpha, beta, fee, nu1, nu2, quote=None):
    lo, hi, d1max, d2max, bid, ask = bounded_quote(r1, r2, alpha, beta, fee) if quote is None else quote
    p = nu1 / nu2
    out = np.zeros((6, p.shape[0]))
    below, above = p < bid, p > ask  # disjoint: a fee of at most 1 puts the bid at or below the ask
    # full liquidity strictly outside the quotes, whose bid or ask may round onto lo or hi
    full1 = (p <= lo) & below
    full2 = (p >= hi) & above
    np.putmask(out[0], full1, d1max)
    np.putmask(out[1], full1, r2)
    np.putmask(out[2], full2, d2max)
    np.putmask(out[3], full2, r1)
    # the rows that trade inside their range, both directions in one pass on
    # the few rows gathered: a row above the ask (`two`) takes (virtual
    # reserve in, virtual reserve out, reserve out, price in, price out) of
    # direction 2, any other of direction 1
    interior = below | above
    interior ^= full1 | full2  # every full row trades
    i = np.flatnonzero(interior)
    if i.size:
        two = above[i]
        r1i, r2i, nu1i, nu2i, f = r1[i], r2[i], nu1[i], nu2[i], fee[i]
        v1, v2 = r1i + alpha[i], r2i + beta[i]
        vin, vout, rout = np.where(two, v2, v1), np.where(two, v1, v2), np.where(two, r1i, r2i)
        nu_in, nu_out = np.where(two, nu2i, nu1i), np.where(two, nu1i, nu2i)
        d = np.maximum((np.sqrt(f * (vin * vout) * nu_out / nu_in) - vin) / f, 0.0)
        fd = f * d
        lam = bounded_out(vin, vout, rout, fd)
        keep = nu_out * lam - nu_in * d > 0.0
        h = _curvature(two, (vin + fd) / (2.0 * f), nu_in, nu_out)
        i, t = i[keep], 2 * two[keep]  # the tendered row of each kept row's direction
        out[t, i] = d[keep]
        out[t + 1, i] = lam[keep]
        out[5, i] = h[keep]

    # a fee-free segment exactly at its spot trades nothing, but its
    # curvatures from both sides agree there: direction 1's at d = 0
    s = _spot(p, bid, ask)
    if s.size:
        out[5, s] = (r1[s] + alpha[s]) / (2.0 * nu1[s])
    np.maximum(nu1 * (out[3] - out[0]) + nu2 * (out[1] - out[2]), 0.0, out=out[4])
    return out


# each kernel's quote function, whose last two rows are the bid and the ask
QUOTES = {"gmean_arb_batch": gmean_quote, "bounded_arb_batch": bounded_quote}
