"""Run perfbench on one or more source trees and write the runs to one BENCH file.

    python3 tools/bench.py OUT.json [--tree NAME=DIR ...] [--seconds S]
                           [--workloads NAME ...] [--seeds N ...] [--repeat K]

For each workload, seed and repeat, every tree runs `perfbench/run.py
--trace 0` once, from its own directory and on its own sources, and the
order of the trees alternates from one such step to the next.  The defaults
are the three workloads and the run time of `BENCHMARK.json`, seeds 1, 2, 3
and 1001 and one repeat.  The checkout beside this script always runs, as
`change`, after the trees that `--tree` names: `--tree parent=DIR` compares
the checkout at DIR with it.

OUT.json holds:
- `env`: the CPU count and the Python, numpy and scipy versions;
- per tree: its directory, its git sha and whether its tracked files differ
  from that commit (`dirty`), the environment line of its first run, every
  run's end-to-end metrics and, per workload, the median of each metric over
  its runs;
- with two trees, `second_better`: per workload and metric, [won, pairs],
  the pairs (the two trees' runs of one step) in which the second tree did
  better, by each metric's direction in `BENCHMARK.json`, and all pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3, 1001)


def _git(tree: str) -> dict:
    def run(*args):
        return subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True, check=True).stdout

    try:
        return {"git_sha": run("rev-parse", "HEAD").strip(),
                "dirty": bool(run("status", "--porcelain", "--untracked-files=no").strip())}
    except (OSError, subprocess.CalledProcessError):
        return {"git_sha": "unknown", "dirty": None}


def _run(tree: str, command: list, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench run in tree: its environment line and its result."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, cwd=tree, capture_output=True, text=True, check=True).stdout.splitlines()
    env = next(json.loads(line)["env"] for line in out if line.startswith('{"env"'))
    return env, json.loads(out[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="the JSON file to write")
    parser.add_argument("--tree", action="append", metavar="NAME=DIR",
                        help="a source checkout to run before this one, named `change` (repeatable)")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(SEEDS))
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    trees = {name: os.path.abspath(d) for name, d in (t.split("=", 1) for t in args.tree or [])}
    trees["change"] = ROOT

    import numpy
    import scipy

    doc = {"env": {"nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": numpy.__version__,
                   "scipy": scipy.__version__},
           "seconds": args.seconds,
           "trees": {name: {"dir": d, **_git(d), "env": None, "runs": []} for name, d in trees.items()}}
    step = 0
    for workload in args.workloads:
        for seed in args.seeds:
            for rep in range(args.repeat):
                names = list(trees) if step % 2 == 0 else list(trees)[::-1]
                for name in names:
                    env, result = _run(trees[name], bench["command"], workload, seed, args.seconds)
                    entry = doc["trees"][name]
                    entry["env"] = entry["env"] or env
                    entry["runs"].append({"workload": workload, "seed": seed, "repeat": rep, "step": step,
                                          "attempted": result["attempted"], "failed": result["failed"],
                                          "correct": result["correct"],
                                          "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                    print(f"{name:8} {workload:15} seed {seed:5} "
                          + " ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
                step += 1
    metrics = [m["name"] for m in bench["end_to_end"]]
    for entry in doc["trees"].values():
        entry["medians"] = {w: {m: statistics.median(r["metrics"][m] for r in entry["runs"] if r["workload"] == w)
                                for m in metrics} for w in args.workloads}
    if len(trees) == 2:
        first, second = (doc["trees"][name]["runs"] for name in trees)
        sign = {m["name"]: -1.0 if m["better"] == "lower" else 1.0 for m in bench["end_to_end"]}
        pairs = [(a["workload"], a["metrics"], b["metrics"]) for a, b in zip(first, second)]
        doc["second_better"] = {w: {m: [sum(sign[m] * (b[m] - a[m]) > 0.0 for wa, a, b in pairs if wa == w),
                                        sum(wa == w for wa, _, _ in pairs)] for m in metrics}
                                for w in args.workloads}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
