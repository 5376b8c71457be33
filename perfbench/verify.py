"""Independent certificate for one routing result.

The verifier rebuilds everything it judges from market state that it reads
itself: attributes of the live market objects, or the snapshot JSON document.
It never calls the solver, the batched kernels, the snapshot compile cache or
``eval_dual``, and it never trusts the ``converged`` flag.  A result passes
when all of these hold:

1. the prices nu lie in the objective's box and its conjugate is finite;
2. the network trade psi, summed here from the per-market trades, matches the
   reported psi, is feasible for the objective, and gives a finite utility
   equal to the reported one;
3. every trade is feasible in its market's current state (trading-function
   acceptance for gmean, bounded and curve2 markets; best-execution output
   bound for aggregates), and on a fixed seeded sample of markets the output
   is also bounded by ``oracle.reference_forward``;
4. the relative duality gap, conjugate(nu) + sum of live arbitrage values at
   nu - utility, lies in [-GAP_TOL, GAP_TOL].  The arbitrage values are
   computed here in closed form (gmean, bounded, aggregate as a sum over its
   segments) or by golden-section search on the curve2 invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GAP_TOL = 1e-6          # relative duality gap accepted
FEAS_TOL = 1e-9         # relative slack on trading-function acceptance
PSI_TOL = 1e-6          # relative slack on objective feasibility (as in objectives)
_GOLDEN_ITERS = 200
_FILL_ITERS = 200


@dataclass
class Certificate:
    ok: bool
    reasons: list[str] = field(default_factory=list)
    gap_rel: float = math.nan
    utility: float = math.nan


# ---------------------------------------------------------------------------
# Market state, read independently of the solver
# ---------------------------------------------------------------------------

@dataclass
class MarketTable:
    """Struct-of-arrays copy of the market state, one block per kind."""

    n: int
    kind: list[str]                 # per market: gmean | bounded | aggregate | curve2
    tokens: np.ndarray              # (m, 2) global indices
    gm: dict                        # arrays over gmean markets, plus "idx"
    bp: dict                        # arrays over bounded markets, plus "idx"
    agg: list                       # (market index, segment arrays)
    c2: list                        # (market index, r1, r2, amp, fee)


def _pack(rows: list[tuple], names: tuple[str, ...]) -> dict:
    if not rows:
        return {"idx": np.zeros(0, dtype=int), **{k: np.zeros(0) for k in names}}
    cols = list(zip(*rows))
    out = {"idx": np.asarray(cols[0], dtype=int)}
    for k, col in zip(names, cols[1:]):
        out[k] = np.asarray(col, dtype=float)
    return out


def table_from_docs(n: int, docs: list[dict]) -> MarketTable:
    """Build the table from snapshot-JSON market entries."""
    kind, tokens, gm, bp, agg, c2 = [], [], [], [], [], []
    for i, d in enumerate(docs):
        t = d["type"]
        tokens.append(d["tokens"])
        fee = float(d["fee"])
        if t == "gmean":
            kind.append("gmean")
            gm.append((i, *d["reserves"], *d["weights"], fee))
        elif t == "bounded_product":
            kind.append("bounded")
            bp.append((i, *d["reserves"], d["alpha"], d["beta"], fee))
        elif t == "aggregate":
            kind.append("aggregate")
            segs = d["segments"]
            agg.append((i, {
                "r1": np.array([s["reserves"][0] for s in segs], float),
                "r2": np.array([s["reserves"][1] for s in segs], float),
                "alpha": np.array([s["alpha"] for s in segs], float),
                "beta": np.array([s["beta"] for s in segs], float),
                "fee": fee,
            }))
        elif t == "curve2":
            kind.append("curve2")
            c2.append((i, float(d["reserves"][0]), float(d["reserves"][1]), float(d["amp"]), fee))
        else:
            raise ValueError(f"verifier does not know market type {t!r}")
    return MarketTable(
        n, kind, np.asarray(tokens, dtype=int).reshape(-1, 2),
        _pack(gm, ("r1", "r2", "w1", "w2", "fee")),
        _pack(bp, ("r1", "r2", "alpha", "beta", "fee")),
        agg, c2,
    )


def table_from_markets(n: int, markets: list) -> MarketTable:
    """Build the table from live market objects, through their snapshot-JSON
    entries (``to_dict`` reads attributes only, never the compile cache)."""
    return table_from_docs(n, [mk.to_dict() for mk in markets])


# ---------------------------------------------------------------------------
# Closed forms, derived here from the trading functions
# ---------------------------------------------------------------------------

def gmean_arb_value(r1, r2, w1, w2, fee, nu1, nu2):
    """Optimal arbitrage value of weighted geometric-mean pools.

    Tendering d of asset 1 returns r2 * (1 - (r1 / (r1 + fee*d))**(w1/w2));
    setting the derivative of nu2*out - nu1*d to zero gives d in closed form.
    """
    def one_way(rin, rout, eta, nu_in, nu_out):
        x = (nu_out * rout * eta * fee * rin ** eta / nu_in) ** (1.0 / (eta + 1.0))
        d = np.maximum((x - rin) / fee, 0.0)
        out = rout * (1.0 - (rin / (rin + fee * d)) ** eta)
        return np.maximum(nu_out * out - nu_in * d, 0.0)

    return np.maximum(one_way(r1, r2, w1 / w2, nu1, nu2), one_way(r2, r1, w2 / w1, nu2, nu1))


def bounded_forward(vin, vout, rout, fee, d):
    """Output of a bounded segment for input d: (vin + fee*d)(vout - out) = vin*vout."""
    return np.minimum(rout, fee * d * vout / (vin + fee * d))


def _bounded_one_way(vin, vout, rout, off_out, fee, nu_in, nu_out):
    with np.errstate(divide="ignore", invalid="ignore"):
        d = (np.sqrt(fee * vin * vout * nu_out / nu_in) - vin) / fee
        dmax = np.where(off_out > 0.0, rout * vin / (fee * off_out), np.inf)
    d = np.clip(d, 0.0, dmax)
    d = np.where(rout > 0.0, d, 0.0)
    out = bounded_forward(vin, vout, rout, fee, d)
    return np.maximum(nu_out * out - nu_in * d, 0.0)


def bounded_arb_value(r1, r2, alpha, beta, fee, nu1, nu2):
    v1, v2 = r1 + alpha, r2 + beta
    return np.maximum(
        _bounded_one_way(v1, v2, r2, beta, fee, nu1, nu2),
        _bounded_one_way(v2, v1, r1, alpha, fee, nu2, nu1),
    )


def aggregate_forward(seg: dict, d_in: float, direction: int) -> float:
    """Best-execution output of an aggregate for input d_in.

    The split that maximises total output equalises marginal prices, so
    bisect on the common price q: each segment takes the input that brings
    its marginal price down to q (capped where its output reserve runs out).
    """
    if d_in <= 0.0:
        return 0.0
    r1, r2, al, be, fee = seg["r1"], seg["r2"], seg["alpha"], seg["beta"], seg["fee"]
    v1, v2 = r1 + al, r2 + be
    vin, vout, rout, off = (v1, v2, r2, be) if direction == 1 else (v2, v1, r1, al)
    with np.errstate(divide="ignore", invalid="ignore"):
        dmax = np.where(rout > 0.0, np.where(off > 0.0, rout * vin / (fee * off), np.inf), 0.0)

    def inputs(q):
        with np.errstate(divide="ignore", invalid="ignore"):
            d = (np.sqrt(fee * vin * vout / q) - vin) / fee
        return np.clip(np.nan_to_num(d, nan=0.0), 0.0, dmax)

    cap = float(np.sum(dmax))
    if d_in >= cap:
        return float(np.sum(np.where(rout > 0.0, rout, 0.0)))
    hi = float(np.max(fee * vout / vin))   # above every marginal price: no input
    lo = hi
    while inputs(lo).sum() < d_in:
        lo /= 4.0
    for _ in range(_FILL_ITERS):
        mid = 0.5 * (lo + hi)
        if inputs(mid).sum() >= d_in:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    d = inputs(lo)
    d *= d_in / d.sum()   # tiny rescale onto the exact input; raises output by < 1e-15
    return float(bounded_forward(vin, vout, rout, fee, d).sum())


def curve2_forward(r_in, r_out, amp, fee, d):
    """Output of a curve2 pool, amp*(x+y) - 1/(x*y) = phi0, from the positive
    root of amp*x*y**2 + x*(amp*x - phi0)*y - 1 = 0 in the post-trade y."""
    phi0 = amp * (r_in + r_out) - 1.0 / (r_in * r_out)
    x = r_in + fee * d
    b = x * (amp * x - phi0)
    s = math.sqrt(b * b + 4.0 * amp * x)
    y = 2.0 / (s + b) if b > 0.0 else (s - b) / (2.0 * amp * x)
    return max(r_out - y, 0.0)


def curve2_arb_value(r1, r2, amp, fee, nu1, nu2) -> float:
    """Golden-section search on the concave objective nu_out*out(d) - nu_in*d."""
    best = 0.0
    for rin, rout, nu_in, nu_out in ((r1, r2, nu1, nu2), (r2, r1, nu2, nu1)):
        f = lambda d: nu_out * curve2_forward(rin, rout, amp, fee, d) - nu_in * d  # noqa: E731
        lo, hi = 0.0, nu_out * rout / nu_in
        g = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = hi - g * (hi - lo), lo + g * (hi - lo)
        fa, fb = f(a), f(b)
        for _ in range(_GOLDEN_ITERS):
            if fa < fb:
                lo, a, fa = a, b, fb
                b = lo + g * (hi - lo)
                fb = f(b)
            else:
                hi, b, fb = b, a, fa
                a = hi - g * (hi - lo)
                fa = f(a)
            if hi - lo <= 1e-14 * max(1.0, hi):
                break
        best = max(best, fa, fb, f(0.5 * (lo + hi)))
    return best


# ---------------------------------------------------------------------------
# The certificate
# ---------------------------------------------------------------------------

def _objective_parts(objective: dict, n: int):
    """(lower bound on nu, conjugate(nu) function, psi floor, value vector)."""
    if objective["kind"] == "arbitrage":
        c = np.asarray(objective["valuation"], dtype=float)
        return c, (lambda nu: 0.0), np.zeros(n), c
    basket = np.asarray(objective["basket"], dtype=float)
    t = int(objective["out_token"])
    lower = np.zeros(n)
    lower[t] = 1.0
    value = np.zeros(n)
    value[t] = 1.0
    return lower, (lambda nu: float(nu @ basket)), -basket, value


def certify(table: MarketTable, objective: dict, nu, tendered, received, psi, utility,
            sample_markets=None, reference_forward=None) -> Certificate:
    """Check one routing result against live market state.

    ``objective`` is {"kind": "arbitrage", "valuation": c} or
    {"kind": "liquidate", "basket": b, "out_token": t}.  ``tendered`` and
    ``received`` are (m, 2) arrays in each market's local order.
    ``sample_markets`` (live objects, by index) and ``reference_forward``
    (from ``dexroute.oracle``) enable the oracle cross-check.
    """
    cert = Certificate(ok=False)
    n, m = table.n, len(table.kind)
    nu = np.asarray(nu, dtype=float)
    ten = np.asarray(tendered, dtype=float).reshape(m, 2)
    rec = np.asarray(received, dtype=float).reshape(m, 2)
    reasons = cert.reasons

    lower, conj, floor, value = _objective_parts(objective, n)
    if nu.shape != (n,) or not np.all(np.isfinite(nu)) or np.any(nu <= 0.0):
        reasons.append("nu not positive and finite")
        return cert
    if np.any(nu < lower * (1.0 - 1e-12)):
        reasons.append("nu outside the objective's box")
        return cert
    if not (np.all(np.isfinite(ten)) and np.all(np.isfinite(rec))):
        reasons.append("non-finite trade")
        return cert
    if np.any(ten < 0.0) or np.any(rec < 0.0):
        reasons.append("negative tendered or received amount")
    if np.any((ten[:, 0] > 0.0) & (ten[:, 1] > 0.0)):
        reasons.append("trade tenders both assets")

    # 2. network trade and objective
    own_psi = np.zeros(n)
    np.add.at(own_psi, table.tokens[:, 0], rec[:, 0] - ten[:, 0])
    np.add.at(own_psi, table.tokens[:, 1], rec[:, 1] - ten[:, 1])
    scale = max(1.0, float(np.abs(own_psi).max(initial=0.0)), float(np.abs(floor).max()))
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (n,) or not np.allclose(psi, own_psi, rtol=1e-9, atol=1e-9 * scale):
        reasons.append("reported psi differs from the sum of trades")
    if np.any(own_psi < floor - PSI_TOL * scale):
        j = int(np.argmin(own_psi - floor))
        reasons.append(f"psi infeasible for the objective at asset {j}: {own_psi[j]:.6g}")
    own_utility = float(value @ own_psi)
    cert.utility = own_utility
    if not (isinstance(utility, (int, float)) and math.isfinite(utility)):
        reasons.append(f"reported utility is not finite: {utility}")
    elif abs(utility - own_utility) > 1e-9 * max(1.0, abs(own_utility)):
        reasons.append(f"reported utility {utility} differs from {own_utility}")

    # 3. feasibility in live state, and 4. live arbitrage values at nu
    arb_total = 0.0
    nu_a, nu_b = nu[table.tokens[:, 0]], nu[table.tokens[:, 1]]
    bad: list[int] = []

    gm = table.gm
    if gm["idx"].size:
        i = gm["idx"]
        t1, t2, o1, o2 = ten[i, 0], ten[i, 1], rec[i, 0], rec[i, 1]
        post1 = gm["r1"] + gm["fee"] * t1 - o1
        post2 = gm["r2"] + gm["fee"] * t2 - o2
        with np.errstate(divide="ignore", invalid="ignore"):
            lhs = gm["w1"] * np.log(post1 / gm["r1"]) + gm["w2"] * np.log(post2 / gm["r2"])
        fail = ~((post1 > 0.0) & (post2 > 0.0) & (lhs >= -FEAS_TOL))
        bad.extend(i[fail].tolist())
        arb_total += float(gmean_arb_value(gm["r1"], gm["r2"], gm["w1"], gm["w2"], gm["fee"],
                                           nu_a[i], nu_b[i]).sum())

    bp = table.bp
    if bp["idx"].size:
        i = bp["idx"]
        t1, t2, o1, o2 = ten[i, 0], ten[i, 1], rec[i, 0], rec[i, 1]
        k = (bp["r1"] + bp["alpha"]) * (bp["r2"] + bp["beta"])
        post = (bp["r1"] + bp["alpha"] + bp["fee"] * t1 - o1) * (bp["r2"] + bp["beta"] + bp["fee"] * t2 - o2)
        slack = 1e-12 * (1.0 + np.abs(np.stack([bp["r1"], bp["r2"]], axis=1)))
        drains = (o1 > bp["r1"] + slack[:, 0]) | (o2 > bp["r2"] + slack[:, 1])
        fail = drains | (post < k * (1.0 - FEAS_TOL))
        bad.extend(i[fail].tolist())
        arb_total += float(bounded_arb_value(bp["r1"], bp["r2"], bp["alpha"], bp["beta"], bp["fee"],
                                             nu_a[i], nu_b[i]).sum())

    for i, seg in table.agg:
        direction = 1 if ten[i, 0] > 0.0 else 2
        d_in, out = ten[i, direction - 1], rec[i, 2 - direction]
        if rec[i, direction - 1] > 0.0:
            bad.append(i)
        elif d_in > 0.0 or out > 0.0:
            limit = aggregate_forward(seg, float(d_in), direction)
            if out > limit * (1.0 + FEAS_TOL) + 1e-12:
                bad.append(i)
        arb_total += float(bounded_arb_value(seg["r1"], seg["r2"], seg["alpha"], seg["beta"],
                                             seg["fee"], nu_a[i], nu_b[i]).sum())

    for i, r1, r2, amp, fee in table.c2:
        phi0 = amp * (r1 + r2) - 1.0 / (r1 * r2)
        p1 = r1 + fee * ten[i, 0] - rec[i, 0]
        p2 = r2 + fee * ten[i, 1] - rec[i, 1]
        if p1 <= 0.0 or p2 <= 0.0 or amp * (p1 + p2) - 1.0 / (p1 * p2) < phi0 - FEAS_TOL * abs(phi0):
            bad.append(i)
        arb_total += curve2_arb_value(r1, r2, amp, fee, float(nu_a[i]), float(nu_b[i]))

    if sample_markets and reference_forward is not None:
        for i, mk in sample_markets:
            direction = 1 if ten[i, 0] > 0.0 else 2
            d_in, out = ten[i, direction - 1], rec[i, 2 - direction]
            if d_in <= 0.0 and out <= 0.0:
                continue
            rout = float(mk.reserves[2 - direction])
            ref = float(reference_forward(mk, d_in, direction))
            if out > ref + FEAS_TOL * max(1.0, rout):
                bad.append(i)
    if bad:
        first = sorted(set(bad))[:5]
        reasons.append(f"{len(set(bad))} trade(s) infeasible in live state, e.g. markets {first}")

    dual = conj(nu) + arb_total
    gap = dual - own_utility
    cert.gap_rel = gap / max(1.0, abs(own_utility))
    if not math.isfinite(cert.gap_rel) or abs(cert.gap_rel) > GAP_TOL:
        reasons.append(f"relative duality gap {cert.gap_rel:.3e} outside +-{GAP_TOL:g}")
    cert.ok = not reasons
    return cert
