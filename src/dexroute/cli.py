"""Command-line front end: route, gen."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core import _encoded, dumps_snapshot, load_snapshot
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


# a "trades" entry as json.dumps(..., indent=2) spells it, from the close of the
# one before: its market index goes at 1, its floats t1, t2, r1, r2 at 3, 5, 7, 9
_ENTRY = ('\n      ]\n    },\n    {\n      "market": ', None, ',\n      "tendered": [\n        ', "0.0",
          ',\n        ', "0.0", '\n      ],\n      "received": [\n        ', "0.0", ',\n        ', "0.0")


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
    """The text of json.dumps(_solution_doc(sol), indent=2) + "\n", byte for byte:
    `nu` and `psi` are their floats through `core._encoded`, joined at that
    indentation; the trades are one join of `_ENTRY` pieces and the encoded
    floats, of which only the nonzero and negative-zero ones go through it."""
    doc, text = _solution_doc(sol, trades=False), "{"
    for key, values in (("nu", sol.nu), ("psi", sol.psi.psi)):  # the first two keys of `doc`
        del doc[key]
        text += f'\n  "{key}": ' + ("[\n    " + ",\n    ".join(_encoded(values)) + "\n  ]," if len(values) else "[],")
    text += json.dumps(doc, indent=2)[1:] + "\n"
    if not len(sol.tendered):
        return text
    head, tail = text.split('"trades": []', 1)  # nu and psi hold only numbers
    parts = list(_ENTRY) * len(sol.tendered)
    parts[0], parts[1::10] = head + '"trades": [\n    {\n      "market": ', map(str, range(len(sol.tendered)))
    flat = np.hstack([sol.tendered, sol.received]).ravel()  # t1, t2, r1, r2 of each trade in turn
    sent = np.flatnonzero((flat != 0.0) | np.signbit(flat))  # the floats that are not 0.0
    at = 10 * (sent // 4) + 3 + 2 * (sent % 4)  # float k goes in entry k // 4, at 3 + 2 * (k % 4)
    for i, f in zip(at.tolist(), _encoded(flat[sent])):
        parts[i] = f
    parts.append('\n      ]\n    }\n  ]' + tail)
    return "".join(parts)


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
        print(f"warning: not converged after {sol.iterations} rounds, "
              f"projected residual {sol.coupling_residual:.3g}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return 0


def cmd_gen(args) -> int:
    from . import generate  # deferred: a route loads no numpy.random

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
