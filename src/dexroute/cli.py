"""Command-line front end: route, gen."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import generate
from .core import dumps_snapshot, load_snapshot
from .errors import ConfigurationError, DexRouteError, UnboundedError
from .objectives import objective_from_dict
from .solver import RoutingSolution, SolverConfig, solve

EXIT_PARSE = 1
EXIT_NOT_CONVERGED = 2
EXIT_UNBOUNDED = 3


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _write(text: str, out_path):
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _parse_vec(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")])


# one entry of the solution's "trades" list as json.dumps(..., indent=2) spells it
_TRADE_ROW = ('    {{\n      "market": {},\n'
              '      "tendered": [\n        {},\n        {}\n      ],\n'
              '      "received": [\n        {},\n        {}\n      ]\n    }}')


def _solution_doc(sol: RoutingSolution, trades: bool = True) -> dict:
    """The solution document; with trades=False its "trades" list is empty."""
    return {
        "nu": sol.nu.tolist(),
        "psi": sol.psi.psi.tolist(),
        "trades": [
            {"market": i, "tendered": t, "received": r}
            for i, (t, r) in enumerate(zip(sol.tendered.tolist(), sol.received.tolist()))
        ] if trades else [],
        "utility": float(sol.utility),
        "dual_value": float(sol.dual_value),
        "iterations": sol.iterations,
        "converged": sol.converged,
        "wall_time_ms": sol.wall_time * 1000.0,
    }


def _solution_json(sol: RoutingSolution) -> str:
    """The text of json.dumps(_solution_doc(sol), indent=2) + "\n", byte for byte.

    The trade floats go through the C encoder as one flat list, which spells
    NaN, Infinity and -0.0 as the indented encoder does, and are filled into a
    fixed per-trade template; the rest of the document is dumped as it is.
    """
    text = json.dumps(_solution_doc(sol, trades=False), indent=2) + "\n"
    if not len(sol.tendered):
        return text
    floats = json.dumps(np.hstack([sol.tendered, sol.received]).ravel().tolist())
    it = iter(floats[1:-1].split(", "))  # t1, t2, r1, r2 of each trade in turn
    rows = ",\n".join(map(_TRADE_ROW.format, range(len(sol.tendered)), it, it, it, it))
    # nu and psi hold only numbers, so the first match is the trades key
    return text.replace('"trades": []', '"trades": [\n' + rows + "\n  ]", 1)


def cmd_route(args) -> int:
    snapshot = load_snapshot(args.snapshot)
    if args.objective == "arbitrage":
        prices = _parse_vec(args.prices) if args.prices else snapshot.prices
        if prices is None:
            raise ConfigurationError("arbitrage objective needs --prices or snapshot prices")
        doc = {"objective": "arbitrage", "prices": prices}
    else:
        if args.basket is None or args.out_token is None:
            raise ConfigurationError("liquidate objective needs --basket and --out-token")
        doc = {"objective": "liquidate", "basket": _parse_vec(args.basket),
               "out_token": args.out_token}
    obj = objective_from_dict(doc, snapshot.n)
    cfg = SolverConfig(max_iterations=args.max_iter, gradient_tolerance=args.tol)
    try:
        sol = solve(snapshot, obj, cfg)
    except UnboundedError as e:
        _fail(EXIT_UNBOUNDED, str(e))
    _write(_solution_json(sol), args.out)
    if not sol.converged:
        print(f"warning: not converged after {sol.iterations} iterations", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return 0


def cmd_gen(args) -> int:
    snapshot = generate.generate_snapshot(args.m, args.seed, fee=args.fee)
    _write(dumps_snapshot(snapshot), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dexroute",
                                     description="Optimal trade routing across CFMM networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("route", help="solve a routing problem from a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--objective", required=True, choices=["arbitrage", "liquidate"])
    p.add_argument("--prices", help="comma-separated valuation (default: snapshot prices)")
    p.add_argument("--basket", help="comma-separated amounts tendered")
    p.add_argument("--out-token", type=int)
    p.add_argument("--max-iter", type=int, default=200, help="most Newton rounds on the dual")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("gen", help="generate a random snapshot")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--fee", type=float, default=0.997)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, DexRouteError) as e:  # a bad argument, file or path
        _fail(EXIT_PARSE, str(e))


if __name__ == "__main__":
    sys.exit(main())
