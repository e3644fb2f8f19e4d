"""Run one workload over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/repeat.py --workload serve-hot --seeds 1-10

For every end-to-end metric it prints the median over the runs and the
inter-quartile range as a share of the median, the figure the bounds in
``BENCHMARK.json`` are compared against.  Runs that report incorrect
output are listed; their timings still count.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import config  # noqa: E402
import stats  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=config.WORKLOADS)
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    parser.add_argument("--seconds", default="4")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)

    with open(os.path.join(config.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bounds = {m["name"]: m.get("bound")
                  for m in json.load(fh)["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(config.ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            cwd=config.ROOT, capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        flag = "" if result["correct"] else "  INCORRECT"
        print(f"seed {seed}: exit {proc.returncode}{flag} " + " ".join(
            f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()
            if k in bounds), flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    for name, series in values.items():
        if name not in bounds or len(series) < 2:
            continue
        spread = stats.spread(series)
        bound = bounds[name]
        print(f"{name:<12} median {stats.median(series):.4f}  spread "
              f"{spread:.2%}  bound {bound:.0%}  "
              f"{'ok' if spread < bound / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
