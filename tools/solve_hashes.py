"""Fingerprint the solver's results on fixed inputs, to compare two trees.

    python3 tools/solve_hashes.py [--sweep-out sweep.json] [--compare other_sweep.json]

For each group of solves it prints one SHA-256 over every solve's `nu`,
tendered, received, rounds and `converged`, and the number of dual
evaluations (calls of `solver._eval`) the group took.  Under each group's
line a `time` line gives its mean `wall_time` per solve in ms, the time
inside `solver._eval` per evaluation in µs, and the rest of the solve time
per Newton round in µs (Hessian, Newton step, line-search bookkeeping,
initial point and primal recovery).  Under that a `trials` line counts the
group's Newton rounds by the number of trials their line search evaluated,
`k:rounds` for each k: the `solver._eval` calls from one call of
`solver._first_length`, which starts a round's line search, to the next or
to the end of the solve.  Under that a `kernels` line gives, for the calls
made inside `solver._eval`, each block kernel's µs per call and ns per row
(the length of its first argument), and the µs per `find_arb` of the
`other` rows (`GenericSwapMarket.find_arb`, which curve2 pools inherit),
each with its number of calls.  The groups:

- mixed: the 64 mixed-network solves (templates 0-7, arbitrage and
  liquidation, seeds 1, 2, 3 and 1001), each snapshot read back from JSON;
- desk: `generate_snapshot(10_000, seed)` arbitrage at seeds 42 and 7, read
  back from JSON;
- route: one SHA-256 over what a `dexroute route` of each desk snapshot
  writes, `cli._solution_json` of its solve with `wall_time` set to 0, and
  over `dumps_snapshot` of the loaded snapshot;
- block: every block-stream block on seeds 1, 2, 3 and 1001, with
  perfbench's own mutations;
- block-state: one SHA-256 over the state those blocks leave, after each
  block every array of `snapshot.blocks` and each `other` market's
  reserves, so a change to the write path shows bit-identical state, not
  only identical solutions;
- snapshot: one SHA-256 over `dumps_snapshot` of each mixed-network template
  snapshot of seed 1 and of the block-stream snapshot after each block of
  seeds 1 and 2, so the text of every market type is pinned;
- gen: one SHA-256 over `dumps_snapshot(generate_snapshot(m, seed))` for m
  in 1, 2, 3, 64, 256, 2000 and 10**4 and seeds 0, 42, 2**32 + 5 and
  2**130 + 1, then at m = 256, seed 42 and fee 0.95, and at m = 10**4 with
  seeds 281 and 15495, each of which redraws one market;
- scalar: one SHA-256 over the scalar methods of every market and segment
  of the mixed-network templates of seed 1: `float(x).hex()` of
  `forward_exchange` and `price_impact` at 25 amounts from 1e-6 to 1e4 and
  of `max_input`, in both directions, and of `spread` and `phi`, where the
  type has them, then the market's `to_dict` as JSON.  The hex spelling
  pins the values and not their type (`float` or `np.float64`);
- read: one SHA-256 over what `markets.read_columns` returns for the desk
  documents (seeds 42 and 7), each mixed-network template document of
  seed 1 and the block-stream document of seed 1: the dtype, shape,
  contiguity and bytes of `owner`, `i1`, `i2`, each block, its `block_rows`
  and `aggregates`, and each `other` row with its market's `to_dict`, so a
  change to the reader shows bit-identical columns;
- sweep: the 300 random solves (150 networks from `default_rng(0)`, each
  under arbitrage and the liquidation of 20 of token 0 into token 1).

Each group of several seeds also gets a line per seed, and the sweep one
line with its converged count.  `--sweep-out` writes each sweep solve's rounds,
`converged`, residual and evaluations as JSON.  `--compare` reads such a
file, written by another tree, and prints the sweep against it: the solves
converged, lost and won, the residuals more than ten times worse or better,
the runs at the round cap, the total, median and largest evaluations, and
the evaluations of the solves converged in the file read and of the rest.
The inputs come from
`perfbench/workloads.py` and `tests/test_solver.py` (`_random_network` and
`sweep_cases`); the script imports the `dexroute` beside it, so a copy of the
tree fingerprints that tree.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "perfbench", "tests")]

import numpy as np  # noqa: E402

import dexroute as dx  # noqa: E402
from dexroute import cli, generate, kernels, markets, solver  # noqa: E402

import workloads  # noqa: E402
from test_solver import _random_network, sweep_cases  # noqa: E402

SEEDS = (1, 2, 3, 1001)


class Counter:
    """Counts calls of `solver._eval`, and the seconds spent in them, while
    installed; `inside` is true during a call."""

    def __init__(self):
        self.calls, self.seconds, self.inside, self._eval = 0, 0.0, False, solver._eval

    def __call__(self, *args, **kwargs):
        self.calls += 1
        self.inside = True
        t0 = time.perf_counter()
        try:
            return self._eval(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0
            self.inside = False


COUNT = Counter()
solver._eval = COUNT


class Timed:
    """Counts the calls of `fn` made inside `solver._eval`, the rows they
    solve (the length of a kernel's first argument, one per `find_arb`) and
    the seconds spent in them.  `wrapper` replaces `fn`; it is a function,
    so that it binds as a method where it replaces one."""

    def __init__(self, fn, batched: bool):
        self.totals = [0, 0, 0.0]  # calls, rows, seconds

        def wrapper(*args, **kwargs):
            if not COUNT.inside:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.totals[2] += time.perf_counter() - t0
                self.totals[0] += 1
                self.totals[1] += len(args[0]) if batched else 1

        self.wrapper = wrapper


# the solver looks each kernel up by name on every call, so it calls these
TIMED = {}
for _name, _owner in (("gmean_arb_batch", kernels), ("bounded_arb_batch", kernels),
                      ("find_arb", markets.GenericSwapMarket)):
    TIMED[_name] = Timed(getattr(_owner, _name), _owner is kernels)
    setattr(_owner, _name, TIMED[_name].wrapper)


class Rounds:
    """Counts, while installed, the Newton rounds by the number of
    `solver._eval` calls of their line search: from one call of
    `solver._first_length` to the next, or to the end of the solve, which
    `close` marks."""

    def __init__(self):
        self.trials, self._start, self._first_length = collections.Counter(), None, solver._first_length

    def __call__(self, *args, **kwargs):
        self.close()
        self._start = COUNT.calls
        return self._first_length(*args, **kwargs)

    def close(self):
        if self._start is not None:
            self.trials[COUNT.calls - self._start] += 1
            self._start = None


ROUNDS = Rounds()
solver._first_length = ROUNDS


def _digest(sol) -> bytes:
    h = hashlib.sha256()
    for a in (sol.nu, sol.tendered, sol.received):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    h.update(f"{sol.iterations} {bool(sol.converged)}".encode())
    return h.digest()


def _from_json(snap):
    return dx.snapshot_from_dict(json.loads(dx.dumps_snapshot(snap)))


def mixed(seed, texts):
    """The mixed-network solves; the text of each seed-1 snapshot goes into
    the hash `texts`."""
    for j in range(workloads.MixedNetwork.templates):
        snap, basket, out = workloads.mixed_snapshot(j, seed)
        if seed == 1:
            texts.update(dx.dumps_snapshot(snap).encode())
        snap = _from_json(snap)
        yield dx.solve(snap, dx.TotalArbitrage(snap.prices))
        yield dx.solve(snap, dx.BasketLiquidation(basket, out))


def desk(seed, route):
    """The desk solve; its solution JSON, with `wall_time` 0, and then the
    snapshot's JSON go into the hash `route`."""
    snap = _from_json(generate.generate_snapshot(workloads.DeskGmean.m, seed))
    sol = dx.solve(snap, dx.TotalArbitrage(snap.prices))
    route.update(cli._solution_json(dataclasses.replace(sol, wall_time=0.0)).encode())
    route.update(dx.dumps_snapshot(snap).encode())
    yield sol


def block(seed, state, texts):
    """`BlockStream.round` without the timing and the verifier; the state
    after each block goes into the hash `state`, and on seeds 1 and 2 the
    snapshot's text into the hash `texts`."""
    wl = workloads.BlockStream(seed, None)
    snap = _from_json(workloads.block_snapshot(seed))
    gm_idx = [i for i, mk in enumerate(snap.markets) if isinstance(mk, dx.GeomMeanMarket)]
    agg_idx = [i for i, mk in enumerate(snap.markets) if isinstance(mk, dx.AggregateMarket)]
    prices = snap.prices
    for k in range(wl.blocks):
        swaps, updates, prices = wl._plan(snap, gm_idx, agg_idx, k, prices)
        sol = wl._block(snap, swaps, updates, prices)
        for name in sorted(snap.blocks):
            state.update(name.encode() + snap.blocks[name].tobytes())
        for _, mkt in snap.other:
            state.update(np.ascontiguousarray(mkt.reserves, dtype=float).tobytes())
        if seed in (1, 2):
            texts.update(dx.dumps_snapshot(snap).encode())
        yield sol


GEN_CASES = [*((m, seed, 0.997) for m in (1, 2, 3, 64, 256, 2000, 10**4) for seed in (0, 42, 2**32 + 5, 2**130 + 1)),
             (256, 42, 0.95), (10**4, 281, 0.997), (10**4, 15495, 0.997)]


def gen() -> str:
    h = hashlib.sha256()
    for m, seed, fee in GEN_CASES:
        h.update(dx.dumps_snapshot(generate.generate_snapshot(m, seed, fee=fee)).encode())
    return h.hexdigest()


def scalar() -> str:
    h, amounts = hashlib.sha256(), np.geomspace(1e-6, 1e4, 25).tolist()
    for j in range(workloads.MixedNetwork.templates):
        for market in workloads.mixed_snapshot(j, 1)[0].markets:
            for mkt in (market, *getattr(market, "segments", ())):
                values = [*mkt.spread(), *([mkt.phi()] if hasattr(mkt, "phi") else [])]
                for d in (1, 2):
                    if hasattr(mkt, "max_input"):
                        values.append(mkt.max_input(d))
                    if hasattr(mkt, "forward_exchange"):
                        values += [f(x, d) for f in (mkt.forward_exchange, mkt.price_impact) for x in amounts]
                h.update(" ".join(float(x).hex() for x in values).encode())
                h.update(json.dumps(mkt.to_dict()).encode())
    return h.hexdigest()


def read() -> str:
    h = hashlib.sha256()
    snaps = [generate.generate_snapshot(workloads.DeskGmean.m, seed) for seed in (42, 7)]
    snaps += [workloads.mixed_snapshot(j, 1)[0] for j in range(workloads.MixedNetwork.templates)]
    for snap in [*snaps, workloads.block_snapshot(1)]:
        doc = json.loads(dx.dumps_snapshot(snap))
        owner, i1, i2, blocks, block_rows, other, aggregates = dx.markets.read_columns(doc["markets"], snap.n)
        h.update(" ".join(sorted(blocks)).encode())
        for a in (owner, i1, i2, *(a for name in sorted(blocks) for a in (blocks[name], block_rows[name])),
                  aggregates):
            h.update(f"{a.dtype} {a.shape} {a.flags.c_contiguous}".encode() + a.tobytes())
        for r, market in other:
            h.update(f"{r} {json.dumps(market.to_dict())}".encode())
    return h.hexdigest()


def sweep(records):
    for n, kinds, seed in sweep_cases():
        snap = _random_network(n, kinds, seed)
        basket = np.zeros(n)
        basket[0] = 20.0
        for name, obj in (("arbitrage", dx.TotalArbitrage(snap.prices)),
                          ("liquidate", dx.BasketLiquidation(basket, 1))):
            before = COUNT.calls
            sol = dx.solve(snap, obj)
            records.append({"n": n, "kinds": kinds, "seed": seed, "objective": name,
                            "rounds": sol.iterations, "converged": bool(sol.converged),
                            "residual": sol.coupling_residual, "evals": COUNT.calls - before})
            yield sol


def _report(name, parts):
    """Print a line per part, if more than one, and one for the group: hash,
    solves, evaluations; then the group's `time`, `trials` and `kernels`
    lines."""
    ROUNDS.trials.clear()
    timed = {fn: list(t.totals) for fn, t in TIMED.items()}
    group, total_solves, total_evals = hashlib.sha256(), 0, 0
    wall, rounds, eval_seconds = 0.0, 0, COUNT.seconds
    for label, solves in parts:
        h, count, before = hashlib.sha256(), 0, COUNT.calls
        for sol in solves:
            ROUNDS.close()
            d = _digest(sol)
            h.update(d)
            group.update(d)
            count += 1
            wall, rounds = wall + sol.wall_time, rounds + sol.iterations
        evals = COUNT.calls - before
        total_solves, total_evals = total_solves + count, total_evals + evals
        if len(parts) > 1:
            print(f"{name:6} {label:10} {h.hexdigest()[:16]}  solves {count:3}  evals {evals}", flush=True)
    print(f"{name:6} {'all':10} {group.hexdigest()}  solves {total_solves}  evals {total_evals}", flush=True)
    eval_seconds = COUNT.seconds - eval_seconds
    print(f"{name:6} {'time':10} {1e3 * wall / max(total_solves, 1):.3f} ms/solve  "
          f"{1e6 * eval_seconds / max(total_evals, 1):.1f} us/eval  "
          f"{1e6 * (wall - eval_seconds) / max(rounds, 1):.1f} us/round  ({rounds} rounds)", flush=True)
    print(f"{name:6} {'trials':10} " + " ".join(f"{k}:{n}" for k, n in sorted(ROUNDS.trials.items())), flush=True)
    shown = []
    for fn, t in TIMED.items():
        calls, rows, seconds = (x - y for x, y in zip(t.totals, timed[fn]))
        if not calls:
            continue
        if fn == "find_arb":
            shown.append(f"other {1e6 * seconds / calls:.1f} us/find_arb ({calls})")
        else:
            shown.append(f"{fn.split('_')[0]} {1e6 * seconds / calls:.1f} us/call {1e9 * seconds / rows:.0f} ns/row ({calls})")
    print(f"{name:6} {'kernels':10} " + "  ".join(shown), flush=True)


def _name(r) -> str:
    return f"({r['n']}, {r['kinds']}, {r['seed']}) {r['objective']}"


def compare(before, after):
    """Print the sweep records `after` against `before`, solve by solve."""
    if [_name(r) for r in before] != [_name(r) for r in after]:
        raise SystemExit("--compare: the two files hold different sweeps")
    pairs = list(zip(before, after))
    cap = solver.SolverConfig().max_iterations

    def named(label, rows):
        print(f"{label}: {len(rows)}")
        for a, b in rows:
            print(f"  {_name(a)}: rounds {a['rounds']} -> {b['rounds']}, evals {a['evals']} -> {b['evals']}, "
                  f"residual {a['residual']:.3g} -> {b['residual']:.3g}")

    def stats(rs):
        ev = [r["evals"] for r in rs]
        return (sum(r["converged"] for r in rs), sum(r["rounds"] >= cap for r in rs),
                sum(ev), float(np.median(ev)), max(ev))

    print("sweep  compare        before  after")
    for label, x, y in zip(("converged", f"at the {cap}-round cap", "evaluations", "median evaluations",
                            "most evaluations"), stats(before), stats(after)):
        print(f"  {label:22} {x:>6g} {y:>6g}")
    for label, converged in (("evaluations, converged", True), ("evaluations, the rest", False)):
        print(f"  {label:22} {sum(a['evals'] for a, _ in pairs if a['converged'] == converged):>6g} "
              f"{sum(b['evals'] for a, b in pairs if a['converged'] == converged):>6g}")
    named("converged solves lost", [(a, b) for a, b in pairs if a["converged"] and not b["converged"]])
    named("converged solves won", [(a, b) for a, b in pairs if b["converged"] and not a["converged"]])
    named("residual over 10x worse", [(a, b) for a, b in pairs if b["residual"] > 10.0 * a["residual"]])
    print(f"residual over 10x better: {sum(b['residual'] < 0.1 * a['residual'] for a, b in pairs)}")
    named(f"new runs at the {cap}-round cap", [(a, b) for a, b in pairs if b["rounds"] >= cap > a["rounds"]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweep-out", help="write each sweep solve's record to this JSON file")
    parser.add_argument("--compare", help="print the sweep against this --sweep-out file of another tree")
    args = parser.parse_args(argv)
    texts = hashlib.sha256()
    _report("mixed", [(f"seed {s}", mixed(s, texts)) for s in SEEDS])
    route = hashlib.sha256()
    _report("desk", [(f"seed {s}", desk(s, route)) for s in (42, 7)])
    print(f"{'route':17} {route.hexdigest()}", flush=True)
    state = hashlib.sha256()
    _report("block", [(f"seed {s}", block(s, state, texts)) for s in SEEDS])
    print(f"{'block-state':17} {state.hexdigest()}", flush=True)
    print(f"{'snapshot':17} {texts.hexdigest()}", flush=True)
    print(f"{'gen':17} {gen()}", flush=True)
    print(f"{'scalar':17} {scalar()}", flush=True)
    print(f"{'read':17} {read()}", flush=True)
    records = []
    _report("sweep", [("", sweep(records))])
    print(f"sweep  converged {sum(r['converged'] for r in records)} of {len(records)}")
    if args.sweep_out:
        with open(args.sweep_out, "w") as f:
            json.dump(records, f, indent=0)
    if args.compare:
        with open(args.compare) as f:
            compare(json.load(f), records)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
