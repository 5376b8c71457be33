"""Span recorder for the traced run.

``Recorder.install()`` replaces public entry points of dexroute with thin
wrappers, at the names their callers look up, and ``uninstall()`` puts the
originals back.  Each call becomes one span: (id, parent id, name, start,
end, op id, attributes).  Spans stay in memory; ``dump`` writes them out as
JSON lines at the end of the run.  Nothing is wrapped in an untraced run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

# Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    "solver.minimize_ms": "ms",
    "solver.polish_ms": "ms",
    "solver.recover_ms": "ms",
    "solver.initial_point_ms": "ms",
    "solver.dual_evals.minimize": "count",
    "solver.dual_evals.polish": "count",
    "solver.us_per_eval": "us",
    "solver.restarts": "count",
    "solver.iterations": "count",
    "kernels.gmean.calls": "count",
    "kernels.gmean.ns_per_market": "ns",
    "kernels.bounded.calls": "count",
    "kernels.bounded.ns_per_market": "ns",
    "kernels.self_share": "ratio",
    "markets.find_arb.calls.gmean": "count",
    "markets.find_arb.us.gmean": "us",
    "markets.find_arb.calls.bounded": "count",
    "markets.find_arb.us.bounded": "us",
    "markets.find_arb.calls.aggregate": "count",
    "markets.find_arb.us.aggregate": "us",
    "markets.find_arb.calls.curve2": "count",
    "markets.find_arb.us.curve2": "us",
    "markets.swap.ms.gmean": "ms",
    "markets.swap.ms.aggregate": "ms",
    "markets.swap.rejected_ratio": "ratio",
    "markets.update_liquidity.ms": "ms",
    "core.load_ms": "ms",
    "core.write_ms": "ms",
    "core.net_trade_ms": "ms",
    "solver.false_converged_ratio": "ratio",
    "solver.gap_rel.max": "ratio",
    "solver.residual.max": "tokens",
    "tracing.overhead_ratio": "ratio",
}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float = 0.0
    op: int | None = None
    attrs: dict = field(default_factory=dict)


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _wrap(self, name, fn, attrs_in=None, attrs_out=None):
        rec = self

        def wrapper(*args, **kwargs):
            span = Span(len(rec.spans), rec._stack[-1] if rec._stack else None, name,
                        time.perf_counter(), op=rec.op)
            rec.spans.append(span)
            if attrs_in is not None:
                attrs_in(span.attrs, args)
            rec._stack.append(span.sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.attrs["error"] = type(e).__name__
                raise
            finally:
                span.t1 = time.perf_counter()
                rec._stack.pop()
            if attrs_out is not None:
                attrs_out(span.attrs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def _patch(self, owner, attr, name, **kw):
        self._set(owner, attr, self._wrap(name, getattr(owner, attr), **kw))

    # -- entry points ------------------------------------------------------

    def install(self):
        """Wrap dexroute's public entry points where their callers find them."""
        import dexroute as dx
        from dexroute import cli, kernels, markets, solver

        def sol_attrs(attrs, sol):
            attrs.update(converged=bool(sol.converged), iterations=int(sol.iterations),
                         residual=float(sol.coupling_residual))

        solve = self._wrap("solver.solve", solver.solve, attrs_out=sol_attrs)
        for owner in (dx, solver, cli):
            self._set(owner, "solve", solve)
        self._patch(solver, "initial_point", "solver.initial_point")
        self._patch(solver, "minimize", "solver.minimize")
        self._patch(solver, "net_trade", "core.net_trade")
        n_markets = lambda attrs, args: attrs.__setitem__("m", len(args[0]))  # noqa: E731
        self._patch(kernels, "gmean_arb_batch", "kernels.gmean", attrs_in=n_markets)
        self._patch(kernels, "bounded_arb_batch", "kernels.bounded", attrs_in=n_markets)
        for cls, kind in ((markets.GeomMeanMarket, "gmean"),
                          (markets.BoundedProductSegment, "bounded"),
                          (markets.AggregateMarket, "aggregate"),
                          (markets.Curve2Market, "curve2")):
            self._patch(cls, "find_arb", f"markets.find_arb.{kind}")
            self._patch(cls, "apply_trade", f"markets.apply_trade.{kind}")
        kind_of = {"GeomMeanMarket": "gmean", "BoundedProductSegment": "bounded",
                   "AggregateMarket": "aggregate", "Curve2Market": "curve2"}
        market_kind = lambda attrs, args: attrs.__setitem__(  # noqa: E731
            "kind", kind_of.get(type(args[0]).__name__, "other"))
        for owner in (dx, markets):
            self._patch(owner, "swap", "markets.swap", attrs_in=market_kind)
            self._patch(owner, "update_liquidity", "markets.update_liquidity", attrs_in=market_kind)
        for owner in (dx, cli):
            self._patch(owner, "load_snapshot", "core.load_snapshot")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:   # inherited attribute: drop the shadowing wrapper
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s.sid, s.parent, s.name, s.t0, s.t1, s.op, s.attrs]) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def _self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time covered by its direct children."""
    own = {s.sid: s.t1 - s.t0 for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.t1 - s.t0
    return own


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def _solve_phases(solve: Span, children: list[Span]) -> dict:
    """Split one solve into initial point, minimise, polish and recovery.

    minimise: end of initial_point to end of the last L-BFGS-B call;
    polish: from there to the first gmean/bounded find_arb called by solve
    itself (dual evaluations batch those kinds and aggregates call their
    segments, so only primal recovery makes such calls); recovery: from there
    to the end of net_trade.
    """
    ip = [c for c in children if c.name == "solver.initial_point"]
    mins = [c for c in children if c.name == "solver.minimize"]
    rec_starts = [c.t0 for c in children if c.parent == solve.sid
                  and c.name in ("markets.find_arb.gmean", "markets.find_arb.bounded")]
    nets = [c for c in children if c.name == "core.net_trade"]
    t_ip = ip[0].t1 if ip else solve.t0
    t_min = mins[-1].t1 if mins else t_ip
    t_rec = min(rec_starts) if rec_starts else (nets[-1].t0 if nets else solve.t1)
    t_end = nets[-1].t1 if nets else solve.t1
    kernel = "kernels.gmean" if any(c.name == "kernels.gmean" for c in children) else "kernels.bounded"
    evals_min = sum(1 for c in children if c.name == kernel and t_ip <= c.t0 < t_min)
    evals_pol = sum(1 for c in children if c.name == kernel and t_min <= c.t0 < t_rec)
    return {
        "initial_point_ms": sum(c.t1 - c.t0 for c in ip) * 1e3,
        "minimize_ms": (t_min - t_ip) * 1e3,
        "polish_ms": (t_rec - t_min) * 1e3,
        "recover_ms": (t_end - t_rec) * 1e3,
        "evals_min": evals_min,
        "evals_pol": evals_pol,
        "restarts": max(len(mins) - 1, 0),
        "iterations": solve.attrs.get("iterations", 0),
    }


def layer_metrics(spans: list[Span], ops: dict[int, dict]) -> dict[str, float]:
    """Per-layer metrics over the traced ops.

    ``ops`` maps op id -> {"ms": latency, "ok": verified, "converged": bool or
    None, "gap_rel": float}.  Counts are per op; times are per call unless
    the name says otherwise.
    """
    spans = [s for s in spans if s.op in ops]
    n_ops = max(len(ops), 1)
    self_t = _self_times(spans)
    by_id = {s.sid: s for s in spans}
    by_parent: dict[int, list[Span]] = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)

    def subtree(root: Span) -> list[Span]:
        out, todo = [], [root.sid]
        while todo:
            for c in by_parent.get(todo.pop(), []):
                out.append(c)
                todo.append(c.sid)
        return out

    out: dict[str, float] = {}
    solves = [s for s in spans if s.name == "solver.solve"]
    phases = [_solve_phases(s, subtree(s)) for s in solves]
    for key in ("minimize_ms", "polish_ms", "recover_ms", "initial_point_ms"):
        out[f"solver.{key}"] = _mean([p[key] for p in phases])
    out["solver.dual_evals.minimize"] = _mean([p["evals_min"] for p in phases])
    out["solver.dual_evals.polish"] = _mean([p["evals_pol"] for p in phases])
    evals = sum(p["evals_min"] + p["evals_pol"] for p in phases)
    eval_ms = sum(p["minimize_ms"] + p["polish_ms"] for p in phases)
    out["solver.us_per_eval"] = eval_ms * 1e3 / evals if evals else 0.0
    out["solver.restarts"] = _mean([p["restarts"] for p in phases])
    out["solver.iterations"] = _mean([p["iterations"] for p in phases])

    total_op_s = sum(o["ms"] for o in ops.values()) / 1e3
    kernel_self = 0.0
    for kind in ("gmean", "bounded"):
        ks = [s for s in spans if s.name == f"kernels.{kind}"]
        markets = sum(s.attrs.get("m", 0) for s in ks)
        secs = sum(s.t1 - s.t0 for s in ks)
        kernel_self += sum(self_t[s.sid] for s in ks)
        out[f"kernels.{kind}.calls"] = len(ks) / n_ops
        out[f"kernels.{kind}.ns_per_market"] = secs * 1e9 / markets if markets else 0.0
    out["kernels.self_share"] = kernel_self / total_op_s if total_op_s else 0.0

    find_names = {f"markets.find_arb.{k}" for k in ("gmean", "bounded", "aggregate", "curve2")}
    for kind in ("gmean", "bounded", "aggregate", "curve2"):
        # calls made by the solver, not the segment calls inside an aggregate
        fs = [s for s in spans if s.name == f"markets.find_arb.{kind}"
              and not (s.parent in by_id and by_id[s.parent].name in find_names)]
        out[f"markets.find_arb.calls.{kind}"] = len(fs) / n_ops
        out[f"markets.find_arb.us.{kind}"] = _mean([(s.t1 - s.t0) * 1e6 for s in fs])

    swaps = [s for s in spans if s.name == "markets.swap"]
    for kind in ("gmean", "aggregate"):
        out[f"markets.swap.ms.{kind}"] = _mean(
            [(s.t1 - s.t0) * 1e3 for s in swaps if s.attrs.get("kind") == kind])
    out["markets.swap.rejected_ratio"] = (
        sum(1 for s in swaps if "error" in s.attrs) / len(swaps) if swaps else 0.0)
    out["markets.update_liquidity.ms"] = _mean(
        [(s.t1 - s.t0) * 1e3 for s in spans if s.name == "markets.update_liquidity"])

    loads = [s for s in spans if s.name == "core.load_snapshot"]
    out["core.load_ms"] = sum((s.t1 - s.t0) * 1e3 for s in loads) / n_ops
    nets = [s for s in spans if s.name == "core.net_trade"]
    out["core.net_trade_ms"] = _mean([(s.t1 - s.t0) * 1e3 for s in nets])
    if loads:
        # route = load + solve + writing the solution JSON
        solve_ms = sum((s.t1 - s.t0) * 1e3 for s in solves)
        out["core.write_ms"] = (sum(o["ms"] for o in ops.values())
                                - out["core.load_ms"] * n_ops - solve_ms) / n_ops
    else:
        out["core.write_ms"] = 0.0

    conv = [o for o in ops.values() if o.get("converged")]
    out["solver.false_converged_ratio"] = sum(1 for o in conv if not o["ok"]) / n_ops
    good = [o for o in ops.values() if o["ok"]]
    out["solver.gap_rel.max"] = max((abs(o["gap_rel"]) for o in good), default=0.0)
    residual = {s.op: s.attrs.get("residual", 0.0) for s in solves}
    out["solver.residual.max"] = max(
        (residual.get(op, 0.0) for op, o in ops.items() if o["ok"]), default=0.0)
    return out

